package serve

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"flowcheck/internal/engine"
	"flowcheck/internal/ledger"
	"flowcheck/internal/stagecache"
)

// AnalyzeRequest is the JSON body of POST /analyze. Secret and public
// inputs come either as literal strings or base64 (for binary inputs);
// the *_b64 field wins when both are set.
type AnalyzeRequest struct {
	Program string `json:"program"`
	// Principal attributes the request for cumulative leakage accounting
	// (the X-Flow-Principal header wins when both are set); empty means
	// "anonymous". Ignored when the service has no ledger.
	Principal string `json:"principal,omitempty"`
	Secret    string `json:"secret,omitempty"`
	SecretB64 string `json:"secret_b64,omitempty"`
	Public    string `json:"public,omitempty"`
	PublicB64 string `json:"public_b64,omitempty"`

	// TimeoutMS bounds the request end to end; the deadline also feeds
	// the admission controller's shed decision.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// Optional per-request budget overrides. Each field set above 0
	// replaces that cap of the program's budget for this request; a field
	// left 0 keeps the program's cap.
	MaxGraphNodes  int   `json:"max_graph_nodes,omitempty"`
	MaxGraphEdges  int   `json:"max_graph_edges,omitempty"`
	MaxOutputBytes int   `json:"max_output_bytes,omitempty"`
	SolverBudget   int64 `json:"solver_budget,omitempty"`

	// Precision picks the ladder rung: "trivial", "static", "full", or
	// "adaptive" (empty keeps the program's configured mode). Trivial and
	// static answer a sound upper bound with no execution; adaptive
	// escalates to the full solve only while the cheap bound exceeds
	// AdaptiveThreshold bits.
	Precision         string `json:"precision,omitempty"`
	AdaptiveThreshold int64  `json:"adaptive_threshold,omitempty"`

	// Classes asks for per-secret-class bounds (§10.1) alongside the joint
	// result: one execution, one solve per class on the shared graph. The
	// principal's ledger is charged the joint bound, not the per-class sum.
	// Cannot combine with a precision override.
	Classes []ClassSpec `json:"classes,omitempty"`

	// IncludeGraph asks for the run's flow graph in the response
	// (AnalyzeResponse.Graph), packed for transit. The fleet coordinator
	// sets it on batch runs so it can merge per-run graphs into the
	// distributed joint bound. The request skips the cache fast path and
	// neither reads nor fills the result cache, whose entries keep no
	// graph (cache "bypass"). Cheap precision rungs carry no graph.
	IncludeGraph bool `json:"include_graph,omitempty"`
}

// ClassSpec names one secret class: the secret-stream bytes
// [off, off+len).
type ClassSpec struct {
	Name string `json:"name"`
	Off  int    `json:"off"`
	Len  int    `json:"len"`
}

// AnalyzeResponse is the JSON body of a served analysis.
type AnalyzeResponse struct {
	Program           string `json:"program"`
	Bits              int64  `json:"bits"`
	TaintedOutputBits int64  `json:"tainted_output_bits"`
	Degraded          bool   `json:"degraded"`
	DegradedReason    string `json:"degraded_reason,omitempty"`
	// Rung is the precision-ladder rung that produced Bits ("trivial",
	// "static", "full"); also the X-Flow-Rung response header. Cheap-rung
	// answers report degraded=true with zero steps: nothing executed.
	Rung        string  `json:"rung,omitempty"`
	Trapped     bool    `json:"trapped"`
	Trap        string  `json:"trap,omitempty"`
	Cut         string  `json:"cut,omitempty"`
	Steps       uint64  `json:"steps"`
	OutputBytes int     `json:"output_bytes"`
	Attempts    int     `json:"attempts"`
	LatencyMS   float64 `json:"latency_ms"`
	// Cache is the request's cache disposition ("hit", "miss", "bypass";
	// empty when caching is disabled). Also
	// exposed as the X-Flow-Cache response header. Attempts is 0 for
	// fast-path hits: the request never entered admission. CacheNote says
	// why a bypass happened (e.g. "fault-injection").
	Cache     string `json:"cache,omitempty"`
	CacheNote string `json:"cache_note,omitempty"`
	// RemainingBudgetBits is the principal's leakage budget left after
	// this response settled, when the service has a ledger and the program
	// a finite budget. Also the X-Flow-Budget-Remaining response header.
	RemainingBudgetBits *int64 `json:"remaining_budget_bits,omitempty"`
	// Classes holds the per-class measurements of a class request, in
	// request order. The top-level bits/cut are then the joint result —
	// the number the ledger charged, at most (and often less than) the
	// per-class sum.
	Classes []ClassResponse `json:"classes,omitempty"`
	// Graph is the run's packed flow graph, present when the request set
	// include_graph and the answering rung produced one.
	Graph *WireGraph `json:"graph,omitempty"`
	// SolverWork rides with Graph: the solver budget the request was
	// posed under (Response.SolverWork; 0 = unlimited), so the fleet
	// coordinator solves the merged batch under the shards' budget.
	SolverWork int64 `json:"solver_work,omitempty"`
}

// ClassResponse is one secret class's measurement.
type ClassResponse struct {
	Name string `json:"name"`
	Off  int    `json:"off"`
	Len  int    `json:"len"`
	Bits int64  `json:"bits"`
	Cut  string `json:"cut,omitempty"`
	// Rung/Degraded mirror the top-level provenance fields: RungFull for a
	// solved per-class max flow, RungTrivial with degraded=true when the
	// class solve fell back to its trivial-cut bound.
	Rung           string `json:"rung,omitempty"`
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	// Error is the class's isolated failure; bits/cut are then meaningless
	// while sibling classes remain valid.
	Error string `json:"error,omitempty"`
}

// ErrorResponse is the JSON body of a failed request; Kind is the stable
// machine-readable failure class.
type ErrorResponse struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// Handler returns the service's HTTP surface:
//
//	POST /analyze  run one analysis (AnalyzeRequest → AnalyzeResponse)
//	GET  /healthz  liveness + Stats JSON (always 200 while the process runs)
//	GET  /readyz   admission readiness (503 once draining)
//	GET  /statz    cache observability: hit/miss/evict/bytes per kind
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /analyze", s.handleAnalyze)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /statz", s.handleStatz)
	if s.opts.ShardName == "" {
		return mux
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Flow-Shard", s.opts.ShardName)
		mux.ServeHTTP(w, r)
	})
}

func (s *Service) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, "bad-request", fmt.Errorf("decoding request: %w", err))
		return
	}
	secret, err := pickInput(req.SecretB64, req.Secret)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad-request", fmt.Errorf("secret: %w", err))
		return
	}
	public, err := pickInput(req.PublicB64, req.Public)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad-request", fmt.Errorf("public: %w", err))
		return
	}

	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	principal := req.Principal
	if h := r.Header.Get("X-Flow-Principal"); h != "" {
		principal = h
	}
	sreq := Request{
		Program:           req.Program,
		Principal:         principal,
		Inputs:            engine.Inputs{Secret: secret, Public: public},
		Precision:         req.Precision,
		AdaptiveThreshold: req.AdaptiveThreshold,
		IncludeGraph:      req.IncludeGraph,
	}
	for _, c := range req.Classes {
		sreq.Classes = append(sreq.Classes, engine.SecretClass{Name: c.Name, Off: c.Off, Len: c.Len})
	}
	if req.MaxGraphNodes > 0 || req.MaxGraphEdges > 0 || req.MaxOutputBytes > 0 || req.SolverBudget > 0 {
		sreq.Budget = &engine.Budget{
			MaxGraphNodes:  req.MaxGraphNodes,
			MaxGraphEdges:  req.MaxGraphEdges,
			MaxOutputBytes: req.MaxOutputBytes,
			SolverWork:     req.SolverBudget,
		}
	}

	t0 := time.Now()
	resp, err := s.Analyze(ctx, sreq)
	if err != nil {
		status, kind := httpStatus(err)
		if ra := retryAfterHint(status, err); ra != "" {
			w.Header().Set("Retry-After", ra)
		}
		WriteError(w, status, kind, err)
		return
	}
	res := resp.Result
	out := AnalyzeResponse{
		Program:           resp.Program,
		Bits:              res.Bits,
		TaintedOutputBits: res.TaintedOutputBits,
		Degraded:          res.Degraded,
		DegradedReason:    res.DegradedReason,
		Rung:              res.Rung,
		Trapped:           res.Trap != nil,
		Steps:             res.Steps,
		OutputBytes:       len(res.Output),
		Attempts:          resp.Attempts,
		LatencyMS:         float64(time.Since(t0).Microseconds()) / 1000,
	}
	if res.Trap != nil {
		out.Trap = res.Trap.Error()
	}
	if res.Rung == engine.RungFull {
		out.Cut = res.CutString()
	}
	for _, cr := range resp.Classes {
		cresp := ClassResponse{
			Name:           cr.Class.Name,
			Off:            cr.Class.Off,
			Len:            cr.Class.Len,
			Bits:           cr.Bits,
			Cut:            cr.Cut,
			Rung:           cr.Rung,
			Degraded:       cr.Degraded,
			DegradedReason: cr.DegradedReason,
		}
		if cr.Err != nil {
			cresp.Error = cr.Err.Error()
		}
		out.Classes = append(out.Classes, cresp)
	}
	if req.IncludeGraph && res.Graph != nil {
		out.Graph = EncodeGraph(res.Graph)
		out.SolverWork = resp.SolverWork
	}
	if res.Rung != "" {
		w.Header().Set("X-Flow-Rung", res.Rung)
	}
	if res.Cache.Disposition != "" {
		out.Cache = res.Cache.Disposition
		out.CacheNote = res.Cache.BypassReason
		w.Header().Set("X-Flow-Cache", res.Cache.Disposition)
	}
	if l := s.opts.Ledger; l != nil {
		if principal == "" {
			principal = "anonymous"
		}
		if rem, ok := l.Remaining(principal, resp.Program); ok {
			out.RemainingBudgetBits = &rem
			w.Header().Set("X-Flow-Budget-Remaining", fmt.Sprint(rem))
		}
	}
	WriteJSON(w, http.StatusOK, out)
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Stats())
}

// statzCache is one cache's /statz rendering: the raw snapshot plus the
// derived per-kind hit ratios.
type statzCache struct {
	stagecache.Stats
	HitRatios map[string]float64 `json:"hit_ratios"`
}

func renderStatz(st stagecache.Stats) statzCache {
	out := statzCache{Stats: st, HitRatios: map[string]float64{}}
	for name, ks := range st.Kinds {
		out.HitRatios[name] = ks.HitRatio()
	}
	return out
}

// statzService is the process-identity section of /statz.
type statzService struct {
	StartTime string `json:"start_time"`
	UptimeMS  int64  `json:"uptime_ms"`
	Version   string `json:"version"`
	Draining  bool   `json:"draining"`
}

// handleStatz serves operational observability from one Stats snapshot:
// process identity (start time, uptime, build version), cache counters
// with per-stage hit ratios for the service cache (result, class graph)
// and the process-global one (compile/static, read beside the snapshot),
// per-program breaker state and retry counters, and the leakage-budget
// ledger (bits per query, cumulative vs. budget, principals near threshold).
func (s *Service) handleStatz(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	resp := struct {
		Service       statzService     `json:"service"`
		CacheEnabled  bool             `json:"cache_enabled"`
		CacheFastPath int64            `json:"cache_fast_path"`
		Cache         *statzCache      `json:"cache,omitempty"`
		GlobalCache   statzCache       `json:"global_cache"`
		Rungs         map[string]int64 `json:"rungs"`
		Programs      []ProgramStats   `json:"programs"`
		Ledger        *ledger.Stats    `json:"ledger,omitempty"`
	}{
		Service: statzService{
			StartTime: st.StartTime,
			UptimeMS:  st.UptimeMS,
			Version:   st.Version,
			Draining:  st.Draining,
		},
		CacheEnabled:  st.Cache != nil,
		CacheFastPath: st.CacheFastPath,
		GlobalCache:   renderStatz(engine.GlobalCacheStats()),
		Rungs: map[string]int64{
			engine.RungTrivial: st.RungTrivial,
			engine.RungStatic:  st.RungStatic,
			engine.RungFull:    st.RungFull,
		},
		Programs: st.Programs,
		Ledger:   st.Ledger,
	}
	if st.Cache != nil {
		sc := renderStatz(*st.Cache)
		resp.Cache = &sc
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Service) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// httpStatus maps the service and engine failure taxonomies onto HTTP:
// load shedding and breaking are 503 (retry elsewhere/later), deadlines
// 504, resource budgets 422 (the request as posed cannot be served),
// internal failures 500.
func httpStatus(err error) (int, string) {
	switch {
	case errors.Is(err, ErrOverload):
		return http.StatusServiceUnavailable, "overload"
	case errors.Is(err, ErrBreakerOpen):
		return http.StatusServiceUnavailable, "breaker-open"
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, "draining"
	case errors.Is(err, ErrUnknownProgram):
		return http.StatusNotFound, "unknown-program"
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest, "bad-request"
	case errors.Is(err, ledger.ErrBudgetExceeded):
		// 429: the principal, not the service, is out of capacity.
		return http.StatusTooManyRequests, "budget-exceeded"
	case errors.Is(err, ledger.ErrUnavailable):
		return http.StatusServiceUnavailable, "ledger-unavailable"
	case errors.Is(err, engine.ErrCanceled):
		return http.StatusGatewayTimeout, "canceled"
	case errors.Is(err, engine.ErrBudget):
		return http.StatusUnprocessableEntity, "budget"
	case errors.Is(err, engine.ErrInternal):
		return http.StatusInternalServerError, "internal"
	}
	return http.StatusInternalServerError, "error"
}

// retryAfterHint derives the Retry-After header for a refused request:
// an open breaker's remaining cooldown, an exceeded budget's remaining
// decay window, or 1 second for the generic shed/drain/unavailable
// cases. Whole seconds, rounded up. Empty means no header — notably a
// 429 against a windowless (lifetime) budget, where retrying is useless.
func retryAfterHint(status int, err error) string {
	var d time.Duration
	var boe *BreakerOpenError
	var exc *ledger.ExceededError
	switch {
	case errors.As(err, &boe):
		d = boe.RetryAfter
	case errors.As(err, &exc):
		if exc.RetryAfter <= 0 {
			return ""
		}
		d = exc.RetryAfter
	case status != http.StatusServiceUnavailable:
		return ""
	}
	return RetryAfter(d)
}

// RetryAfter renders d as a Retry-After value: whole seconds, rounded up,
// at least 1.
func RetryAfter(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprint(secs)
}

func pickInput(b64, lit string) ([]byte, error) {
	if b64 != "" {
		return base64.StdEncoding.DecodeString(b64)
	}
	if lit != "" {
		return []byte(lit), nil
	}
	return nil, nil
}

// WriteJSON writes v as the indented JSON body of a status response.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError writes err as an ErrorResponse body of kind.
func WriteError(w http.ResponseWriter, status int, kind string, err error) {
	WriteJSON(w, status, ErrorResponse{Error: err.Error(), Kind: kind})
}
