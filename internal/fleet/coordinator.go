package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"flowcheck/internal/serve"
)

// Typed coordinator rejections.
var (
	// ErrNoShards marks a request with no live shard to serve it.
	ErrNoShards = errors.New("fleet: no healthy shards")
	// ErrDraining marks a request refused by a shutting-down coordinator.
	ErrDraining = errors.New("fleet: coordinator draining")
)

// ShardSpec names one flowserved backend.
type ShardSpec struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// Options configures a Coordinator. The zero value of every knob gets a
// sensible default. The coordinator reads time.Now, waits 5–10ms before
// a request's first failover and 10–20ms before its second, bounds each
// health probe by probeTimeout, and re-dispatches one batch run at most
// 2×len(Shards) times. Each shard owns 64 points on the ring, a request
// may try min(3, len(Shards)) distinct shards across failover and
// hedging, and the merged batch graphs are solved under the solver
// budget the shards report with them.
type Options struct {
	// Shards is the fleet membership. Names must be unique; they key the
	// ring, the NetPlan chaos targets, and the X-Flow-Shard header.
	Shards []ShardSpec

	// ProbeInterval is the health-probe cadence (default 250ms).
	ProbeInterval time.Duration
	// FailThreshold is how many consecutive failures mark a shard down
	// (default 2). Down shards rejoin on the next passing probe.
	FailThreshold int

	// HedgeAfter is the floor hedge delay (default 50ms); the effective
	// delay is max(HedgeAfter, hedgeMultiple × the shard's latency EWMA).
	// A request launches at most one hedge, to the next replica. Hedging
	// duplicates work, so it costs capacity to buy tail latency — the
	// loser is canceled and its ledger charge settles to zero (serve
	// settles canceled runs at 0).
	HedgeAfter time.Duration

	// BatchWorkersPerShard is each shard's concurrent run width during a
	// batch fan-out (default 4).
	BatchWorkersPerShard int

	// Transport is the chaos seam: the fleet's HTTP round tripper
	// (fault.NetTransport in tests). Nil means http.DefaultTransport.
	Transport http.RoundTripper

	// Logger receives per-request routing decisions; nil disables.
	Logger *slog.Logger
}

const (
	// probeTimeout bounds one health probe.
	probeTimeout = time.Second
	// virtualNodes is each shard's point count on the ring.
	virtualNodes = 64
	// maxReplicas caps a key's preference-list depth.
	maxReplicas = 3
	// hedgeMultiple scales a shard's latency EWMA into its hedge delay.
	hedgeMultiple = 3
	// failoverBackoff is the wait before the first failover; each later
	// one doubles it.
	failoverBackoff = 10 * time.Millisecond
)

// backoff is the jittered wait before failover k (k ≥ 1):
// failoverBackoff doubled per earlier failover, then drawn from [d/2, d]
// out of the process-wide math/rand/v2 source, so concurrent failovers —
// in one coordinator or several — spread out. A request tries at most
// maxReplicas shards, so k < maxReplicas and d stays at most 20ms.
func backoff(k int) time.Duration {
	d := failoverBackoff << (k - 1)
	return d/2 + rand.N(d/2+1)
}

func (o Options) withDefaults() Options {
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 250 * time.Millisecond
	}
	if o.FailThreshold <= 0 {
		o.FailThreshold = 2
	}
	if o.HedgeAfter <= 0 {
		o.HedgeAfter = 50 * time.Millisecond
	}
	if o.BatchWorkersPerShard <= 0 {
		o.BatchWorkersPerShard = 4
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return o
}

// Coordinator fronts a fleet of flowserved shards: consistent-hash
// routing, health probing, failover, hedging, and distributed batches.
// Create with New, optionally Start the probe loop, serve Handler, and
// Close to drain.
type Coordinator struct {
	opts   Options
	log    *slog.Logger
	ring   *ring
	shards []*shard
	client *http.Client
	start  time.Time

	draining atomic.Bool
	inflight sync.WaitGroup

	probeCancel context.CancelFunc
	probeDone   chan struct{}

	requests     atomic.Int64
	hedgesFired  atomic.Int64
	hedgeWins    atomic.Int64
	failovers    atomic.Int64
	steals       atomic.Int64
	redispatches atomic.Int64
	batches      atomic.Int64
}

// New builds a coordinator over the given shards. It does not probe:
// every shard starts healthy and the first failures or Start's probe
// loop correct the picture.
func New(opts Options) (*Coordinator, error) {
	if len(opts.Shards) == 0 {
		return nil, fmt.Errorf("fleet: no shards configured")
	}
	names := make([]string, 0, len(opts.Shards))
	seen := map[string]bool{}
	for _, s := range opts.Shards {
		if s.Name == "" || s.URL == "" {
			return nil, fmt.Errorf("fleet: shard needs both name and url (got %q, %q)", s.Name, s.URL)
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("fleet: duplicate shard name %q", s.Name)
		}
		seen[s.Name] = true
		names = append(names, s.Name)
	}
	opts = opts.withDefaults()
	c := &Coordinator{
		opts:  opts,
		log:   opts.Logger,
		ring:  newRing(names, virtualNodes),
		start: time.Now(),
		client: &http.Client{
			Transport: opts.Transport,
		},
	}
	for _, s := range opts.Shards {
		c.shards = append(c.shards, &shard{name: s.Name, url: s.URL})
	}
	return c, nil
}

// Start probes every shard once, then launches the background
// health-probe loop. Optional: without it the coordinator still demotes
// shards on request failures, but down shards never rejoin and drain
// states are only discovered the hard way. Start returns once the first
// round has finished (within probeTimeout), so a coordinator knows its
// shards' states from the start instead of one ProbeInterval later.
func (c *Coordinator) Start() {
	if c.probeDone != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.probeCancel = cancel
	c.probeDone = make(chan struct{})
	c.probeAll(ctx)
	go func() {
		defer close(c.probeDone)
		ticker := time.NewTicker(c.opts.ProbeInterval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				c.probeAll(ctx)
			}
		}
	}()
}

// probeAll probes every shard concurrently and waits for the round.
func (c *Coordinator) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, sh := range c.shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			c.probe(ctx, sh)
		}(sh)
	}
	wg.Wait()
}

// Close drains the coordinator: new requests are refused with
// ErrDraining, the probe loop stops, and Close returns once in-flight
// requests finish.
func (c *Coordinator) Close() {
	c.draining.Store(true)
	if c.probeCancel != nil {
		c.probeCancel()
		<-c.probeDone
	}
	c.inflight.Wait()
}

// Draining reports whether Close has begun.
func (c *Coordinator) Draining() bool { return c.draining.Load() }

// candidates is the key's live preference list: the ring order filtered
// to routable shards. When nothing is routable it falls back to the full
// ring order — the health picture may be stale, and a refused desperate
// attempt is better than refusing the client outright.
func (c *Coordinator) candidates(key uint64) []*shard {
	order := c.ring.Lookup(key, maxReplicas)
	out := make([]*shard, 0, len(order))
	for _, i := range order {
		if c.shards[i].routable() {
			out = append(out, c.shards[i])
		}
	}
	if len(out) == 0 {
		for _, i := range order {
			out = append(out, c.shards[i])
		}
	}
	return out
}

// hedgeDelay is how long the coordinator waits on a shard before
// launching the duplicate: a multiple of the shard's latency budget,
// floored so cold shards are not hedged instantly.
func (c *Coordinator) hedgeDelay(sh *shard) time.Duration {
	d := c.opts.HedgeAfter
	if b := sh.latencyBudgetUS(); b > 0 {
		m := time.Duration(b*hedgeMultiple) * time.Microsecond
		if m > d {
			d = m
		}
	}
	return d
}

// Analyze routes one request: primary attempt on the program's home
// shard, a hedged duplicate on the next replica when the primary
// exceeds its latency budget, and failover with jittered backoff on
// retryable failures. The first sound answer wins and every other
// in-flight attempt is canceled — a canceled shard run settles its
// ledger charge to zero, so the race never double-charges the
// principal.
func (c *Coordinator) Analyze(ctx context.Context, req *serve.AnalyzeRequest) (*serve.AnalyzeResponse, string, error) {
	if c.draining.Load() {
		return nil, "", ErrDraining
	}
	c.inflight.Add(1)
	defer c.inflight.Done()
	c.requests.Add(1)

	cands := c.candidates(programKey(req.Program))
	if len(cands) == 0 {
		return nil, "", ErrNoShards
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type outcome struct {
		resp   *serve.AnalyzeResponse
		err    error
		sh     *shard
		hedged bool
	}
	results := make(chan outcome, len(cands))
	next, outstanding := 0, 0
	launch := func(delay time.Duration, hedged, failover bool) {
		sh := cands[next]
		next++
		outstanding++
		if hedged {
			sh.hedges.Add(1)
			c.hedgesFired.Add(1)
		}
		if failover {
			sh.failovers.Add(1)
			c.failovers.Add(1)
		}
		go func() {
			if delay > 0 {
				t := time.NewTimer(delay)
				select {
				case <-rctx.Done():
					t.Stop()
					results <- outcome{err: &shardError{shard: sh.name, err: rctx.Err()}, sh: sh}
					return
				case <-t.C:
				}
			}
			resp, err := c.do(rctx, sh, req)
			results <- outcome{resp: resp, err: err, sh: sh, hedged: hedged}
		}()
	}

	launch(0, false, false)
	// One hedge at most: the timer is armed once, for the primary.
	var hedgeCh <-chan time.Time
	if next < len(cands) {
		t := time.NewTimer(c.hedgeDelay(cands[0]))
		defer t.Stop()
		hedgeCh = t.C
	}
	failoverK := 0
	var lastErr error
	for outstanding > 0 {
		select {
		case <-hedgeCh:
			hedgeCh = nil
			if next < len(cands) {
				c.log.Info("fleet: hedging", "program", req.Program, "to", cands[next].name)
				launch(0, true, false)
			}
		case out := <-results:
			outstanding--
			if out.err == nil {
				cancel()
				if out.hedged {
					out.sh.hedgeWins.Add(1)
					c.hedgeWins.Add(1)
				}
				return out.resp, out.sh.name, nil
			}
			var se *shardError
			if errors.As(out.err, &se) && !se.retryable() {
				// Deterministic refusals (429 above all) end the race: a
				// replica answering what this shard denied would defeat the
				// denial, not route around a failure.
				cancel()
				return nil, out.sh.name, out.err
			}
			if ctx.Err() != nil {
				return nil, "", ctx.Err()
			}
			lastErr = out.err
			if next < len(cands) {
				failoverK++
				c.log.Info("fleet: failover", "program", req.Program, "from", out.sh.name, "to", cands[next].name, "err", out.err)
				launch(backoff(failoverK), false, true)
			}
		}
	}
	if lastErr == nil {
		lastErr = ErrNoShards
	}
	return nil, "", lastErr
}
