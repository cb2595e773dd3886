package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"flowcheck/internal/engine"
	"flowcheck/internal/flowgraph"
	"flowcheck/internal/serve"
)

// RunInput is one batch run's inputs (the *_b64 field wins, as in
// serve.AnalyzeRequest).
type RunInput struct {
	Secret    string `json:"secret,omitempty"`
	SecretB64 string `json:"secret_b64,omitempty"`
	Public    string `json:"public,omitempty"`
	PublicB64 string `json:"public_b64,omitempty"`
}

// BatchRequest asks the fleet for the joint bound over several runs of
// one program — the distributed AnalyzeBatch.
type BatchRequest struct {
	Program   string     `json:"program"`
	Principal string     `json:"principal,omitempty"`
	Runs      []RunInput `json:"runs"`
	// TimeoutMS bounds the whole batch end to end.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// BatchRunStatus is one run's fate: where it ran, what it measured, and
// how the scheduler moved it.
type BatchRunStatus struct {
	Run   int    `json:"run"`
	Shard string `json:"shard,omitempty"`
	Bits  int64  `json:"bits"` // the run's standalone bound
	// Trapped runs are excluded from the merge (batch trap semantics: a
	// trapped run would silently weaken the joint bound) but their
	// execution facts are known.
	Trapped bool   `json:"trapped,omitempty"`
	Trap    string `json:"trap,omitempty"`
	// Error is a run-isolated failure; the run is excluded and the
	// sibling runs still produce the joint bound.
	Error string `json:"error,omitempty"`
	// Dispatches counts tries (1 = first try stuck); Stolen says a
	// non-preferred shard's worker claimed it.
	Dispatches int  `json:"dispatches"`
	Stolen     bool `json:"stolen,omitempty"`
}

// BatchResponse is the fleet's joint answer. Bits is solved at the
// coordinator over the merged per-run graphs via the same
// engine.SolveJoint seam the in-process batch uses, so it is
// bit-identical to running the batch in one process — including when
// shards died mid-batch and runs were re-dispatched.
type BatchResponse struct {
	Program           string           `json:"program"`
	Bits              int64            `json:"bits"`
	TaintedOutputBits int64            `json:"tainted_output_bits"`
	Rung              string           `json:"rung,omitempty"`
	Degraded          bool             `json:"degraded"`
	DegradedReason    string           `json:"degraded_reason,omitempty"`
	Cut               string           `json:"cut,omitempty"`
	MergedRuns        int              `json:"merged_runs"`
	Runs              []BatchRunStatus `json:"runs"`
	Redispatches      int64            `json:"redispatches"`
	Steals            int64            `json:"steals"`
	LatencyMS         float64          `json:"latency_ms"`
}

// batchRun is one queued run: its preference list position and the
// shards that already failed it.
type batchRun struct {
	idx        int
	prefs      []int // shard indices in ring preference order
	prefAt     int   // next preference to try
	tried      map[int]bool
	dispatches int
}

// runOutcome is a settled run.
type runOutcome struct {
	shard      string
	resp       *serve.AnalyzeResponse
	err        error
	dispatches int
	stolen     bool
}

// AnalyzeBatch fans the runs across every routable shard with work
// stealing and merges the surviving graphs at the coordinator. Each run
// is consistent-hashed to a preferred shard (deterministically, so
// repeated batches re-warm the same caches); idle shards steal queued
// runs from busy ones; a run whose shard fails retryably is re-enqueued
// for the next shard in its preference list — shard loss costs latency,
// not runs. Deterministic per-run failures (a trapped guest, an
// over-budget run, a 429 budget denial) are recorded and excluded from
// the merge exactly as the in-process batch excludes them, and are
// never re-dispatched: they would fail identically anywhere, and
// re-trying a 429 on a replica would circumvent the principal's budget.
func (c *Coordinator) AnalyzeBatch(ctx context.Context, req *BatchRequest) (*BatchResponse, error) {
	if c.draining.Load() {
		return nil, ErrDraining
	}
	c.inflight.Add(1)
	defer c.inflight.Done()
	c.batches.Add(1)
	start := time.Now()

	if len(req.Runs) == 0 {
		return nil, fmt.Errorf("fleet: batch with no runs")
	}
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}

	outcomes := make([]runOutcome, len(req.Runs))
	st := &batchState{
		cond:  sync.NewCond(&sync.Mutex{}),
		queue: make([]*batchRun, 0, len(req.Runs)),
	}
	for i := range req.Runs {
		st.queue = append(st.queue, &batchRun{
			idx:   i,
			prefs: c.ring.Lookup(runKey(req.Program, i), len(c.shards)),
			tried: map[int]bool{},
		})
	}

	var wg sync.WaitGroup
	for w := range c.shards {
		for k := 0; k < c.opts.BatchWorkersPerShard; k++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c.batchWorker(ctx, w, req, st, outcomes)
			}(w)
		}
	}
	// Wake waiting workers when the batch context dies so they can bail.
	stopWatch := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			st.cond.Broadcast()
		case <-stopWatch:
		}
	}()
	wg.Wait()
	close(stopWatch)

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("fleet: batch canceled: %w", err)
	}
	return c.mergeBatch(req, outcomes, start)
}

type batchState struct {
	cond     *sync.Cond
	queue    []*batchRun
	inflight int
	done     bool
}

// claimFor pops a run worker w may try: w's own preferred runs first,
// then anyone's (a steal). A worker whose shard is not routable claims
// only runs with no routable untried shard left — the desperation case,
// where a stale health picture beats a stuck queue. Returns nil when
// the worker should wait.
func (c *Coordinator) claimFor(st *batchState, w int) (r *batchRun, stolen bool) {
	best, bestStolen := -1, false
	for i, br := range st.queue {
		if br.tried[w] {
			continue
		}
		if !c.shards[w].routable() {
			desperate := true
			for j := range c.shards {
				if !br.tried[j] && c.shards[j].routable() {
					desperate = false
					break
				}
			}
			if !desperate {
				continue
			}
		}
		if len(br.prefs) > 0 && br.prefs[br.prefAt%len(br.prefs)] == w {
			best, bestStolen = i, false
			break
		}
		if best < 0 {
			best, bestStolen = i, true
		}
	}
	if best < 0 {
		return nil, false
	}
	r = st.queue[best]
	st.queue = append(st.queue[:best], st.queue[best+1:]...)
	st.inflight++
	return r, bestStolen
}

// batchWorker is one shard's claim loop.
func (c *Coordinator) batchWorker(ctx context.Context, w int, req *BatchRequest, st *batchState, outcomes []runOutcome) {
	sh := c.shards[w]
	for {
		st.cond.L.Lock()
		var br *batchRun
		var stolen bool
		for {
			if st.done || ctx.Err() != nil {
				st.cond.L.Unlock()
				return
			}
			if len(st.queue) == 0 && st.inflight == 0 {
				st.done = true
				st.cond.Broadcast()
				st.cond.L.Unlock()
				return
			}
			if br, stolen = c.claimFor(st, w); br != nil {
				break
			}
			st.cond.Wait()
		}
		st.cond.L.Unlock()

		br.dispatches++
		br.tried[w] = true
		if stolen {
			sh.steals.Add(1)
			c.steals.Add(1)
		}
		in := req.Runs[br.idx]
		resp, err := c.do(ctx, sh, &serve.AnalyzeRequest{
			Program:      req.Program,
			Principal:    req.Principal,
			Secret:       in.Secret,
			SecretB64:    in.SecretB64,
			Public:       in.Public,
			PublicB64:    in.PublicB64,
			IncludeGraph: true,
		})

		st.cond.L.Lock()
		st.inflight--
		settle := func(o runOutcome) {
			o.dispatches = br.dispatches
			o.stolen = stolen
			outcomes[br.idx] = o
		}
		switch {
		case err == nil:
			settle(runOutcome{shard: sh.name, resp: resp})
		case ctx.Err() != nil:
			settle(runOutcome{shard: sh.name, err: ctx.Err()})
		default:
			var se *shardError
			retryable := errors.As(err, &se) && se.retryable()
			untried := 0
			for i := range c.shards {
				if !br.tried[i] {
					untried++
				}
			}
			if retryable && untried > 0 && br.dispatches <= 2*len(c.shards) {
				// Shard loss: hand the run to the next shard in its
				// preference order. The re-dispatched run produces the same
				// graph anywhere, so the merge below cannot tell.
				br.prefAt++
				st.queue = append(st.queue, br)
				c.redispatches.Add(1)
				c.log.Info("fleet: redispatching run", "program", req.Program, "run", br.idx, "from", sh.name, "err", err)
			} else {
				settle(runOutcome{shard: sh.name, err: err})
			}
		}
		st.cond.Broadcast()
		st.cond.L.Unlock()
	}
}

// mergeBatch replays the in-process batch's merge discipline over the
// shard outcomes: exclude failed and trapped runs, merge in run order,
// solve jointly via engine.SolveJoint. Identical inputs therefore yield identical bits
// whether the runs executed here, on one shard, or scattered across a
// fleet that lost a member mid-batch.
func (c *Coordinator) mergeBatch(req *BatchRequest, outcomes []runOutcome, start time.Time) (*BatchResponse, error) {
	out := &BatchResponse{
		Program: req.Program,
		Runs:    make([]BatchRunStatus, 0, len(outcomes)),
	}
	graphs := make([]*flowgraph.Graph, 0, len(outcomes))
	var solverWork int64 // the first merged run's, which every other must match
	var failures []error
	for i, o := range outcomes {
		rs := BatchRunStatus{Run: i, Shard: o.shard, Dispatches: o.dispatches, Stolen: o.stolen}
		fail := func(err error) {
			rs.Error = err.Error()
			failures = append(failures, fmt.Errorf("run %d: %w", i, err))
		}
		switch {
		case o.err != nil:
			fail(o.err)
		case o.resp == nil:
			fail(fmt.Errorf("fleet: run never dispatched"))
		case o.resp.Trapped:
			rs.Bits = o.resp.Bits
			rs.Trapped = true
			rs.Trap = o.resp.Trap
			failures = append(failures, fmt.Errorf("run %d: trapped: %s", i, o.resp.Trap))
		case o.resp.Graph == nil:
			fail(fmt.Errorf("fleet: shard %s returned no graph (cheap precision rung?)", o.shard))
		default:
			rs.Bits = o.resp.Bits
			g, err := o.resp.Graph.Decode()
			switch {
			case err != nil:
			case len(graphs) == 0:
				solverWork = o.resp.SolverWork
			case g.Exact != graphs[0].Exact:
				// Exact graphs merge side by side, collapsed ones by key:
				// a shard whose mode differs from the runs before it
				// cannot join the merge.
				err = fmt.Errorf("fleet: shard %s returned an exact=%v graph into an exact=%v merge", o.shard, g.Exact, graphs[0].Exact)
			case o.resp.SolverWork != solverWork:
				// The joint bound is solved under one budget; a run from
				// a shard configured with another would make the answer
				// depend on which shard ran first.
				err = fmt.Errorf("fleet: shard %s solves under budget %d, the merge under %d", o.shard, o.resp.SolverWork, solverWork)
			}
			if err != nil {
				fail(err)
			} else {
				graphs = append(graphs, g)
			}
		}
		out.Runs = append(out.Runs, rs)
	}
	if len(graphs) == 0 {
		return nil, fmt.Errorf("fleet: all %d runs failed: %w", len(outcomes), errors.Join(failures...))
	}
	res := engine.SolveJoint(graphs, solverWork)
	out.Bits = res.Bits
	out.TaintedOutputBits = res.TaintedOutputBits
	out.Rung = res.Rung
	out.Degraded = res.Degraded
	out.DegradedReason = res.DegradedReason
	if res.Cut != nil {
		// The coordinator loads no guest bytecode, so the cut renders
		// capacities at instruction sites.
		out.Cut = res.CutString()
	}
	out.MergedRuns = len(graphs)
	for _, rs := range out.Runs {
		if rs.Dispatches > 1 {
			out.Redispatches += int64(rs.Dispatches - 1)
		}
		if rs.Stolen {
			out.Steals++
		}
	}
	out.LatencyMS = float64(time.Since(start).Microseconds()) / 1000
	return out, nil
}
