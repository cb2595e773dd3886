package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"flowcheck/internal/serve"
)

// ShardState is a shard's liveness as the coordinator sees it.
type ShardState int32

const (
	// StateHealthy: probes pass, requests route here.
	StateHealthy ShardState = iota
	// StateSuspect: a recent failure; still routable, next in line for
	// demotion. A passing probe or request heals it.
	StateSuspect
	// StateDown: consecutive failures crossed the threshold; the shard
	// gets no traffic until a probe passes (rejoin).
	StateDown
	// StateDraining: the shard reported draining; it refuses work before
	// charging any ledger, so the coordinator routes around it.
	StateDraining
)

func (s ShardState) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateSuspect:
		return "suspect"
	case StateDown:
		return "down"
	case StateDraining:
		return "draining"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// shard is one flowserved backend: its address, the coordinator's view
// of its health and latency, and its traffic counters.
type shard struct {
	name string
	url  string // base URL, no trailing slash

	state       atomic.Int32 // ShardState
	consecFails atomic.Int32

	// ewmaUS is the coordinator-observed request RTT EWMA; reportedUS is
	// the shard's own per-run EWMA from /healthz. The hedge budget uses
	// whichever is larger — the shard knows its queue, the coordinator
	// knows the network.
	ewmaUS      atomic.Int64
	reportedUS  atomic.Int64
	lastProbeMS atomic.Int64 // unix ms of the last probe attempt

	requests  atomic.Int64
	failures  atomic.Int64
	hedges    atomic.Int64 // duplicate requests launched against this shard
	hedgeWins atomic.Int64 // hedged duplicates that won the race
	failovers atomic.Int64 // requests landed here after another shard failed
	steals    atomic.Int64 // batch runs stolen from another shard's queue
}

func (sh *shard) getState() ShardState  { return ShardState(sh.state.Load()) }
func (sh *shard) setState(s ShardState) { sh.state.Store(int32(s)) }

// routable says the shard should receive normal traffic.
func (sh *shard) routable() bool {
	s := sh.getState()
	return s == StateHealthy || s == StateSuspect
}

// observe folds one measured RTT into the coordinator-side EWMA
// (α = 0.2; serve's admission EWMA uses α = 1/4).
func (sh *shard) observe(rtt time.Duration) {
	us := rtt.Microseconds()
	for {
		old := sh.ewmaUS.Load()
		var next int64
		if old == 0 {
			next = us
		} else {
			next = old + (us-old)/5
		}
		if sh.ewmaUS.CompareAndSwap(old, next) {
			return
		}
	}
}

// latencyBudgetUS is the hedge trigger: the worse of the two latency
// views, or zero when neither has data yet.
func (sh *shard) latencyBudgetUS() int64 {
	a, b := sh.ewmaUS.Load(), sh.reportedUS.Load()
	if b > a {
		a = b
	}
	return a
}

// noteFailure records a failed request or probe and demotes the shard:
// suspect on the first failure, down once consecutive failures reach
// threshold.
func (sh *shard) noteFailure(threshold int) {
	sh.failures.Add(1)
	n := sh.consecFails.Add(1)
	if int(n) >= threshold {
		sh.setState(StateDown)
	} else if sh.getState() == StateHealthy {
		sh.setState(StateSuspect)
	}
}

// noteSuccess heals the shard back to healthy (rejoin when it was down).
func (sh *shard) noteSuccess() {
	sh.consecFails.Store(0)
	if sh.getState() != StateDraining {
		sh.setState(StateHealthy)
	}
}

// shardError is a shard's refusal or failure, classified for the
// failover policy. status 0 means the transport failed before any HTTP
// status arrived.
type shardError struct {
	shard      string
	status     int
	kind       string // ErrorResponse.Kind when the shard answered
	retryAfter time.Duration
	err        error
}

func (e *shardError) Error() string {
	if e.status == 0 {
		return fmt.Sprintf("fleet: shard %s: %v", e.shard, e.err)
	}
	return fmt.Sprintf("fleet: shard %s: HTTP %d (%s): %v", e.shard, e.status, e.kind, e.err)
}

func (e *shardError) Unwrap() error { return e.err }

// retryable says another shard (or a later try) could still answer this
// request. Transport failures and service-side unavailability are; a
// 429 budget denial is NOT — the principal is out of leakage budget
// fleet-wide by intent, and failing over to a replica whose ledger has
// not seen the spend would be deliberate budget circumvention. The
// deterministic 4xx failures would just fail identically elsewhere.
func (e *shardError) retryable() bool {
	if e.status == 0 {
		return true
	}
	switch e.status {
	case http.StatusInternalServerError, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// do runs one /analyze call against one shard and classifies the
// outcome. A 200 updates the latency EWMA and heals the shard; failures
// demote it per the coordinator's threshold.
func (c *Coordinator) do(ctx context.Context, sh *shard, req *serve.AnalyzeRequest) (*serve.AnalyzeResponse, error) {
	sh.requests.Add(1)
	body, err := json.Marshal(req)
	if err != nil {
		return nil, &shardError{shard: sh.name, status: http.StatusBadRequest, kind: "bad-request", err: err}
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, sh.url+"/analyze", bytes.NewReader(body))
	if err != nil {
		return nil, &shardError{shard: sh.name, status: http.StatusBadRequest, kind: "bad-request", err: err}
	}
	hreq.Header.Set("Content-Type", "application/json")

	t0 := time.Now()
	hresp, err := c.client.Do(hreq)
	if err != nil {
		if ctx.Err() != nil {
			// Our own cancellation (a lost hedge race, a caller timeout) is
			// not the shard's failure; don't demote it for our impatience.
			return nil, &shardError{shard: sh.name, err: ctx.Err()}
		}
		sh.noteFailure(c.opts.FailThreshold)
		return nil, &shardError{shard: sh.name, err: err}
	}
	defer hresp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(hresp.Body, 64<<20))
	if err != nil {
		if ctx.Err() != nil {
			return nil, &shardError{shard: sh.name, err: ctx.Err()}
		}
		sh.noteFailure(c.opts.FailThreshold)
		return nil, &shardError{shard: sh.name, err: fmt.Errorf("reading response: %w", err)}
	}

	if hresp.StatusCode != http.StatusOK {
		var er serve.ErrorResponse
		_ = json.Unmarshal(payload, &er)
		se := &shardError{
			shard:  sh.name,
			status: hresp.StatusCode,
			kind:   er.Kind,
			err:    errors.New(er.Error),
		}
		if er.Error == "" {
			se.err = fmt.Errorf("HTTP %d", hresp.StatusCode)
		}
		if ra := hresp.Header.Get("Retry-After"); ra != "" {
			var secs int64
			if _, perr := fmt.Sscan(ra, &secs); perr == nil && secs > 0 {
				se.retryAfter = time.Duration(secs) * time.Second
			}
		}
		// Overload, draining, and breaker refusals are the service
		// protecting itself, not evidence the process is gone: route
		// around without demoting. Real 5xx internals demote.
		if se.status == http.StatusInternalServerError || se.status == http.StatusBadGateway {
			sh.noteFailure(c.opts.FailThreshold)
		} else if se.kind == "draining" {
			sh.setState(StateDraining)
		}
		return nil, se
	}

	var out serve.AnalyzeResponse
	if err := json.Unmarshal(payload, &out); err != nil {
		sh.noteFailure(c.opts.FailThreshold)
		return nil, &shardError{shard: sh.name, err: fmt.Errorf("decoding response: %w", err)}
	}
	sh.observe(time.Since(t0))
	sh.noteSuccess()
	return &out, nil
}

// probe refreshes one shard's health from /healthz: liveness, the
// shard's own latency EWMA, and its draining flag.
func (c *Coordinator) probe(ctx context.Context, sh *shard) {
	sh.lastProbeMS.Store(time.Now().UnixMilli())
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(pctx, http.MethodGet, sh.url+"/healthz", nil)
	if err != nil {
		sh.noteFailure(c.opts.FailThreshold)
		return
	}
	hresp, err := c.client.Do(hreq)
	if err != nil {
		sh.noteFailure(c.opts.FailThreshold)
		return
	}
	defer hresp.Body.Close()
	var st serve.Stats
	if err := json.NewDecoder(io.LimitReader(hresp.Body, 8<<20)).Decode(&st); err != nil || hresp.StatusCode != http.StatusOK {
		sh.noteFailure(c.opts.FailThreshold)
		return
	}
	sh.reportedUS.Store(st.EWMALatencyUS)
	sh.consecFails.Store(0)
	if st.Draining {
		sh.setState(StateDraining)
	} else {
		sh.setState(StateHealthy)
	}
}
