package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"flowcheck/internal/serve"
)

// ShardStats is one row of the /statz shard table.
type ShardStats struct {
	Name  string `json:"name"`
	URL   string `json:"url"`
	State string `json:"state"`
	// EWMALatencyUS is the coordinator-observed request RTT;
	// ReportedEWMAUS is the shard's own per-run EWMA from /healthz.
	EWMALatencyUS       int64  `json:"ewma_latency_us"`
	ReportedEWMAUS      int64  `json:"reported_ewma_us"`
	ConsecutiveFailures int32  `json:"consecutive_failures"`
	LastProbe           string `json:"last_probe,omitempty"`
	RingVNodes          int    `json:"ring_vnodes"`

	Requests  int64 `json:"requests"`
	Failures  int64 `json:"failures"`
	Hedges    int64 `json:"hedges"`
	HedgeWins int64 `json:"hedge_wins"`
	Failovers int64 `json:"failovers"`
	Steals    int64 `json:"steals"`
}

// Stats snapshots the coordinator: fleet-wide counters plus the
// per-shard table.
type Stats struct {
	StartTime string `json:"start_time"`
	UptimeMS  int64  `json:"uptime_ms"`
	Draining  bool   `json:"draining"`
	Healthy   int    `json:"healthy_shards"`

	Requests     int64 `json:"requests"`
	Batches      int64 `json:"batches"`
	HedgesFired  int64 `json:"hedges_fired"`
	HedgeWins    int64 `json:"hedge_wins"`
	Failovers    int64 `json:"failovers"`
	Steals       int64 `json:"steals"`
	Redispatches int64 `json:"redispatches"`

	Shards []ShardStats `json:"shards"`
}

// Stats snapshots the coordinator.
func (c *Coordinator) Stats() Stats {
	st := Stats{
		StartTime:    c.start.UTC().Format(time.RFC3339),
		UptimeMS:     time.Since(c.start).Milliseconds(),
		Draining:     c.draining.Load(),
		Requests:     c.requests.Load(),
		Batches:      c.batches.Load(),
		HedgesFired:  c.hedgesFired.Load(),
		HedgeWins:    c.hedgeWins.Load(),
		Failovers:    c.failovers.Load(),
		Steals:       c.steals.Load(),
		Redispatches: c.redispatches.Load(),
	}
	spread := c.ring.Spread()
	for i, sh := range c.shards {
		state := sh.getState()
		if state == StateHealthy || state == StateSuspect {
			st.Healthy++
		}
		row := ShardStats{
			Name:                sh.name,
			URL:                 sh.url,
			State:               state.String(),
			EWMALatencyUS:       sh.ewmaUS.Load(),
			ReportedEWMAUS:      sh.reportedUS.Load(),
			ConsecutiveFailures: sh.consecFails.Load(),
			RingVNodes:          spread[i],
			Requests:            sh.requests.Load(),
			Failures:            sh.failures.Load(),
			Hedges:              sh.hedges.Load(),
			HedgeWins:           sh.hedgeWins.Load(),
			Failovers:           sh.failovers.Load(),
			Steals:              sh.steals.Load(),
		}
		if ms := sh.lastProbeMS.Load(); ms > 0 {
			row.LastProbe = time.UnixMilli(ms).UTC().Format(time.RFC3339)
		}
		st.Shards = append(st.Shards, row)
	}
	return st
}

// Handler returns the coordinator's HTTP surface:
//
//	POST /analyze       route one analysis (serve.AnalyzeRequest in/out)
//	POST /analyzebatch  distributed batch (BatchRequest → BatchResponse)
//	GET  /healthz       coordinator Stats (always 200 while running)
//	GET  /readyz        503 when draining or the whole fleet is down
//	GET  /statz         the shard table (same Stats payload)
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /analyze", c.handleAnalyze)
	mux.HandleFunc("POST /analyzebatch", c.handleBatch)
	mux.HandleFunc("GET /healthz", c.handleStatz)
	mux.HandleFunc("GET /statz", c.handleStatz)
	mux.HandleFunc("GET /readyz", c.handleReadyz)
	return mux
}

func (c *Coordinator) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req serve.AnalyzeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeFleetError(w, http.StatusBadRequest, "bad-request", fmt.Errorf("decoding request: %w", err), 0)
		return
	}
	if h := r.Header.Get("X-Flow-Principal"); h != "" {
		req.Principal = h
	}
	ctx := r.Context()
	if req.TimeoutMS > 0 {
		// The coordinator owns the deadline so a stalled shard attempt
		// cannot eat the whole budget before failover; shards see the
		// remaining time through context cancellation.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	resp, shardName, err := c.Analyze(ctx, &req)
	if err != nil {
		status, kind, retryAfter := fleetStatus(err)
		if shardName != "" {
			w.Header().Set("X-Flow-Shard", shardName)
		}
		writeFleetError(w, status, kind, err, retryAfter)
		return
	}
	w.Header().Set("X-Flow-Shard", shardName)
	if resp.Rung != "" {
		w.Header().Set("X-Flow-Rung", resp.Rung)
	}
	if resp.Cache != "" {
		w.Header().Set("X-Flow-Cache", resp.Cache)
	}
	serve.WriteJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeFleetError(w, http.StatusBadRequest, "bad-request", fmt.Errorf("decoding request: %w", err), 0)
		return
	}
	if h := r.Header.Get("X-Flow-Principal"); h != "" {
		req.Principal = h
	}
	resp, err := c.AnalyzeBatch(r.Context(), &req)
	if err != nil {
		status, kind, retryAfter := fleetStatus(err)
		writeFleetError(w, status, kind, err, retryAfter)
		return
	}
	serve.WriteJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleStatz(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, c.Stats())
}

func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if c.draining.Load() {
		serve.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	for _, sh := range c.shards {
		if sh.routable() {
			serve.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
			return
		}
	}
	serve.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no-shards"})
}

// fleetStatus maps a routing failure onto HTTP. Shard-classified errors
// pass through with their original status and kind (the coordinator is
// a proxy, not a translator); the coordinator's own refusals are 503,
// and a dead transport with no HTTP status at all is a 502.
func fleetStatus(err error) (status int, kind string, retryAfter time.Duration) {
	var se *shardError
	switch {
	case errors.As(err, &se):
		if se.status == 0 {
			return http.StatusBadGateway, "shard-unreachable", 0
		}
		return se.status, se.kind, se.retryAfter
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, "draining", 0
	case errors.Is(err, ErrNoShards):
		return http.StatusServiceUnavailable, "no-shards", 0
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, "canceled", 0
	}
	return http.StatusInternalServerError, "error", 0
}

// writeFleetError writes a failure; a shard's Retry-After passes through,
// and every 503, 502 and 504 carries one (at least 1 second).
func writeFleetError(w http.ResponseWriter, status int, kind string, err error, retryAfter time.Duration) {
	switch {
	case retryAfter > 0, status == http.StatusServiceUnavailable, status == http.StatusBadGateway, status == http.StatusGatewayTimeout:
		w.Header().Set("Retry-After", serve.RetryAfter(retryAfter))
	}
	serve.WriteError(w, status, kind, err)
}
