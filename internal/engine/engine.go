// Package engine is the staged analysis pipeline behind the public
// flowcheck API. One analysis is four explicit stages:
//
//	Execute  run the guest on the VM with the taint tracker attached
//	Build    turn the tracker's union-find state into a flow network
//	Solve    compute the maximum flow and minimum cut over it
//	Report   assemble the Result (tainting baseline, diagnostics, stats)
//
// An Analyzer binds a program to a configuration and owns a pool of
// sessions — machine and tracker — whose buffers are reused across runs
// (vm.Machine.Reset, taint.Tracker.ResetAll), so repeated analyses stop
// paying the per-run allocation cost of fresh guest memory pages and graph
// builders; analyzers derived from it with With share the pool. A session keeps nothing whose size follows the graph: each
// run's edge store becomes its graph, and each run is laid out and solved
// in its own CSR and solver, so no layout sits idle through the next
// run's Execute.
//
// On top of the single-run pipeline, AnalyzeBatch fans N executions across
// worker sessions and merges the per-run graphs by code location
// (internal/merge), preserving the cross-run soundness of §3.2 while
// running executions in parallel; AnalyzeClassSet executes once and fans
// the per-class capacity-view solves (§10.1) across workers. Both are
// deterministic: per-run graphs are merged in run order and classes are
// reported in input order, independent of worker count or scheduling.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"flowcheck/internal/cachekey"
	"flowcheck/internal/fault"
	"flowcheck/internal/flowgraph"
	"flowcheck/internal/maxflow"
	"flowcheck/internal/stagecache"
	"flowcheck/internal/static"
	"flowcheck/internal/taint"
	"flowcheck/internal/vm"
)

// Config controls an analysis.
type Config struct {
	// Taint configures the tracker (collapsing, context sensitivity, lazy
	// region limits, implicit-flow warnings).
	Taint taint.Options
	// MaxSteps bounds guest execution (default vm.DefaultMaxSteps). An
	// exhausted step budget is a typed trap (errors.Is(res.Trap,
	// ErrStepLimit)); the partial run is still soundly analyzable.
	MaxSteps uint64
	// Workers bounds the fan-out of AnalyzeBatch and AnalyzeClassSet;
	// 0 means GOMAXPROCS. Single-run analysis ignores it.
	Workers int
	// Budget bounds per-run resources (graph size, output bytes, solver
	// work); the zero value is unlimited. See Budget for which limits fail
	// a run and which degrade it.
	Budget Budget
	// Fault injects deterministic failures for testing the degradation
	// paths (internal/fault); nil injects nothing.
	Fault *fault.Plan
	// Lint enables the static pre-pass and the static/dynamic
	// cross-check: CFGs, postdominator-based enclosure regions, and
	// enclosure-span matching are computed once per program process-wide
	// (internal/static, via the global stage cache), a probe records the
	// run's tainted branches and region events, and the violations land on
	// Result.Lint. Adds the Static stage duration to Result.Stages on the
	// run that actually paid for the pass.
	Lint bool
	// Precision selects the rung of the precision ladder (see ladder.go):
	// PrecisionFull (the zero value) runs the dynamic pipeline;
	// PrecisionTrivial and PrecisionStatic answer a sound upper bound with
	// no execution and no session (the static rung rides the process-global
	// static cache); PrecisionAdaptive runs the cheapest rung whose bound
	// is ≤ AdaptiveThreshold and escalates to the full solve only when both
	// cheap rungs exceed it. Rung answers set Result.Rung and
	// Result.Degraded and carry no graph, flow, or cut. AnalyzeClassSet
	// ignores Precision: per-class bounds need the per-class flows.
	Precision Precision
	// AdaptiveThreshold is PrecisionAdaptive's escalation threshold in
	// bits: a cheap rung's bound at or below it is considered good enough.
	AdaptiveThreshold int64
	// Cache, when non-nil, content-addresses the pipeline: single-run
	// results are keyed by (program, config, inputs) and full hits are
	// returned without touching a session. Result.Cache records each run's
	// disposition. Nil disables result caching; the program-keyed compile
	// and static stages always share the process global cache regardless.
	// See internal/engine/cache.go.
	Cache *stagecache.Cache
}

// Inputs is one execution's input pair: the secret input whose disclosure
// is measured, and the public input (fixed in the attack model of §3.1).
type Inputs struct {
	Secret []byte
	Public []byte
}

// session is one worker's reusable execution state: the guest machine (with
// its memory pages) and the default tracker and the class analysis's
// attributing one. It holds no layout, no solver and no edge store between
// runs; runStages makes each run's own. Sessions are pooled by the
// Analyzer and are not safe for concurrent use; each worker goroutine
// holds its own.
type session struct {
	m            *vm.Machine
	tracker      *taint.Tracker
	classTracker *taint.Tracker
	rec          *static.Recorder // dynamic-event recorder for Config.Lint

	// poisoned marks a session that recovered a panic mid-run: its
	// tracker/arena/machine state may be inconsistent, so release
	// quarantines it (drops it for the GC) instead of pooling it.
	poisoned bool
}

// prepare readies the machine for one run. Reset costs nothing on a
// machine that has not run yet.
func (s *session) prepare(cfg Config, in Inputs) {
	s.m.Reset()
	if cfg.MaxSteps != 0 {
		s.m.MaxSteps = cfg.MaxSteps
	}
	s.m.SecretIn = in.Secret
	s.m.PublicIn = in.Public
}

// fresh returns the session tracker *tr reset to a blank state (empty
// graph, §3.2 accumulation discarded), creating it on first use.
func fresh(tr **taint.Tracker, opts taint.Options) *taint.Tracker {
	if *tr == nil {
		*tr = taint.New(opts)
	} else {
		(*tr).ResetAll()
	}
	return *tr
}

// sessionHighWater recycles pooled sessions whose last run's graph grew
// past this many peak live edges: the session is discarded and a later
// run builds a fresh one, so one pathological input does not size the
// next run's edge store by its own, nor leave a collapsed arena's key
// index and union-find at its size. Result-visible behavior is
// unchanged; PoolStats reports the churn.
const sessionHighWater = 1 << 20

// Analyzer runs the staged pipeline for one program under one
// configuration, reusing pooled sessions across calls. It is safe for
// concurrent use: concurrent calls draw distinct sessions from the pool.
// Analyzers derived from it with With share its programState.
type Analyzer struct {
	*programState
	cfg Config
	// uncached marks an analyzer derived with Uncached: its runs skip the
	// result cache.
	uncached bool

	// Memoized content-address config key (internal/engine/cache.go).
	cfgOnce sync.Once
	cfgKey  cachekey.Key
}

// programState is what an Analyzer shares with those derived from it: the
// program, its session pool, static analysis and content-address key. A
// session depends only on the program and tracker options, which With keeps.
type programState struct {
	prog *vm.Program
	pool sync.Pool

	// live counts sessions currently checked out of the pool — the
	// observable that the robustness tests use to prove no failure path
	// leaks a session. created and recycled count pool churn: sessions
	// built by pool.New, and sessions quarantined instead of pooled
	// (poisoned by a recovered panic, or over the high-water mark).
	live     atomic.Int64
	created  atomic.Int64
	recycled atomic.Int64
	// highWater is sessionHighWater; tests lower it to force recycling.
	highWater int

	// Static analysis is a pure function of the (immutable) program; it is
	// fetched at most once per program state from the process-global
	// program cache, so N Analyzers over one program pay for one pass total.
	staticMu sync.Mutex
	static   *static.Analysis

	// Memoized content-address program key (internal/engine/cache.go).
	keyOnce sync.Once
	progKey cachekey.Key
}

// New creates an Analyzer for prog under cfg.
func New(prog *vm.Program, cfg Config) *Analyzer {
	ps := &programState{prog: prog, highWater: sessionHighWater}
	ps.pool.New = func() any {
		ps.created.Add(1)
		return &session{m: vm.NewMachine(prog)}
	}
	return &Analyzer{programState: ps, cfg: cfg}
}

// With derives a's configuration under budget b, precision p and adaptive
// threshold thr. The result shares a's programState, so its runs draw a's
// warmed sessions and count in a's Pool; its config key is its own.
func (a *Analyzer) With(b Budget, p Precision, thr int64) *Analyzer {
	cfg := a.cfg
	cfg.Budget, cfg.Precision, cfg.AdaptiveThreshold = b, p, thr
	return &Analyzer{programState: a.programState, cfg: cfg, uncached: a.uncached}
}

// Uncached derives a's configuration with the result cache bypassed: its
// runs, and those of analyzers derived from it, neither read nor fill the
// cache, so every result carries its flow graph. With a cache configured
// they report disposition CacheBypass, reason "graph". The class-graph
// tier is bypassed too.
func (a *Analyzer) Uncached() *Analyzer {
	return &Analyzer{programState: a.programState, cfg: a.cfg, uncached: true}
}

// Program returns the analyzed program.
func (a *Analyzer) Program() *vm.Program { return a.prog }

// Static returns the cached static analysis of the program, computing it
// on first call. It is available independently of Config.Lint (cmd/flowlint
// uses it without running anything).
func (a *Analyzer) Static() *static.Analysis {
	sa, _, _ := a.staticAnalysis()
	return sa
}

// staticAnalysis returns the static analysis plus the time spent by THIS
// call (zero when it was already available) and whether it was served
// from the process-global program cache. The analysis is keyed by program
// content, not by Analyzer: every engine and session analyzing the same
// bytecode shares one *static.Analysis, and the Static stage cost is
// charged to the one caller fleet-wide that actually ran the pass.
func (ps *programState) staticAnalysis() (*static.Analysis, time.Duration, bool) {
	ps.staticMu.Lock()
	defer ps.staticMu.Unlock()
	if ps.static != nil {
		return ps.static, 0, true
	}
	t0 := time.Now()
	v, hit, _ := globalCache.Do(KindStatic, ps.staticKey(), func() (any, int64, error) {
		sa := static.Analyze(ps.prog)
		return sa, estimateStaticBytes(sa), nil
	})
	ps.static = v.(*static.Analysis)
	if hit {
		return ps.static, 0, true
	}
	return ps.static, time.Since(t0), false
}

// Config returns the analyzer's configuration.
func (a *Analyzer) Config() Config { return a.cfg }

func (a *Analyzer) acquire() *session {
	a.live.Add(1)
	return a.pool.Get().(*session)
}

// release returns a session to the pool — unless it must be recycled:
// poisoned sessions (a recovered panic left their state inconsistent) and
// sessions whose last run's graph outgrew the high-water mark are
// dropped for the GC instead, and a later acquire builds a fresh one.
func (a *Analyzer) release(s *session) {
	a.live.Add(-1)
	if s.poisoned || a.overHighWater(s) {
		a.recycled.Add(1)
		return
	}
	a.pool.Put(s)
}

// overHighWater reports whether the session's last run grew its graph past
// the recycle mark. The tracker's counts outlive the hand-off of its edge
// store to the run's graph, so they still read that run.
func (a *Analyzer) overHighWater(s *session) bool {
	over := func(tr *taint.Tracker) bool { return tr != nil && tr.MemStats().PeakLiveEdges > a.highWater }
	return over(s.tracker) || over(s.classTracker)
}

// PoolStats reports session-pool churn: sessions currently checked out,
// ever built, and quarantined instead of pooled. Live returning to zero
// after a drain is the no-leak observable; Recycled counts crash-isolation
// and high-water discards.
type PoolStats struct {
	Live     int64
	Created  int64
	Recycled int64
}

// Pool returns a snapshot of the session-pool statistics of the analyzer's
// program, counting the sessions of every analyzer derived with With.
func (a *Analyzer) Pool() PoolStats {
	return PoolStats{
		Live:     a.live.Load(),
		Created:  a.created.Load(),
		Recycled: a.recycled.Load(),
	}
}

// injectPanic fires a scripted stage panic; the stage-boundary recovery in
// runStages turns it into an InternalError, exactly as a genuine bug
// panicking at that point would be.
func injectPanic(inj fault.Injection, stage fault.Stage) {
	if inj.PanicStage == stage {
		panic(fmt.Sprintf("fault: injected panic in %s stage", stage))
	}
}

// taintedOutputBits is the tainting bound reported alongside the flow
// (paper §7): the capacity of data actually written out, excluding the
// unbounded chain links that model output ordering. It is NOT sound as a
// fallback bound — plain tainting misses implicit flows.
func taintedOutputBits(g *flowgraph.Graph) int64 {
	var total int64
	for _, e := range g.Edges {
		if e.To == flowgraph.Sink && e.Label.Kind == flowgraph.KindOutput {
			total += e.Cap
		}
	}
	return total
}

// trivialCutBits is the sound fallback bound when the solver budget is
// exhausted: the smaller of the two trivial cuts of g at the capacities of
// view (nil: g's own) — all capacity leaving Source (the whole secret) or
// all capacity entering Sink (everything observable, implicit chain links
// included). Any s-t cut's capacity bounds the max flow, so this is sound
// for every graph and every capacity assignment; it is just looser than a
// real solve. (A partial flow would be a lower bound — useless as a
// leakage bound.)
func trivialCutBits(g *flowgraph.Graph, view *flowgraph.CapacityView) int64 {
	var fromSource, intoSink int64
	for i, e := range g.Edges {
		c := view.Of(i, e.Cap)
		if e.From == flowgraph.Source {
			fromSource += c
		}
		if e.To == flowgraph.Sink {
			intoSink += c
		}
	}
	if intoSink < fromSource {
		return intoSink
	}
	return fromSource
}

// solveBound is the one step from a laid-out graph to its bound: it solves
// csr, g's layout, at the capacities of view (nil: g's own) under the
// solver work budget (0 = unlimited). When the budget runs out, or exhaust
// injects that it did, the bound degrades to trivialCutBits at the same
// capacities instead of failing. The returned Result carries only the
// bound: Graph, Bits, Rung, Cut (nil when degraded), and the degradation.
func solveBound(solver *maxflow.Solver, g *flowgraph.Graph, csr *flowgraph.CSR, view *flowgraph.CapacityView, work int64, exhaust bool) *Result {
	reason := "injected solver-work exhaustion"
	if !exhaust {
		flow, exhausted := solver.Solve(csr, view, work)
		if !exhausted {
			return &Result{Graph: g, Bits: flow.Flow, Rung: RungFull, Executed: true, Cut: flow.MinCut()}
		}
		reason = fmt.Sprintf("solver work budget (%d) exhausted", work)
	}
	return &Result{Graph: g, Bits: trivialCutBits(g, view), Rung: RungTrivial, Executed: true, Degraded: true, DegradedReason: reason}
}

// runStages executes the four pipeline stages for one input on a session,
// with the given blank tracker (the session's reset one, or a class
// analysis's attributing one). The graph is laid out into lay for the
// solve; a caller that solves the graph again (the class path) passes
// the CSR it keeps, others pass nil for one dropped after the solve.
//
// Failure semantics: guest traps — including typed step-limit traps — do
// not fail the run; the partial execution is still soundly analyzable, so
// they return a Result with Trap set. Cancellation, exceeded budgets, and
// stage panics produce no sound result and return a typed error
// (ErrCanceled, ErrBudget, ErrInternal). A panic anywhere in the stages is
// recovered here, at the stage boundary, so it cannot kill the process or
// leak the pooled session.
func (a *Analyzer) runStages(ctx context.Context, s *session, tr *taint.Tracker, in Inputs, inj fault.Injection, lay *flowgraph.CSR) (res *Result, err error) {
	stage := fault.StageExecute
	defer func() {
		if r := recover(); r != nil {
			// Quarantine the session: the panic may have left its tracker,
			// arena, or machine mid-mutation, and pooling it would hand the
			// inconsistent state to an unrelated future run.
			s.poisoned = true
			res, err = nil, &InternalError{Stage: stage, Value: r, Stack: debug.Stack()}
		}
	}()
	var st StageStats

	// Optional static pre-pass: fetched once per program process-wide,
	// then each run just installs a probe so the cross-check can compare
	// this run's dynamic events against the cached regions and spans.
	var sa *static.Analysis
	staticHit := false
	if a.cfg.Lint {
		sa, st.Static, staticHit = a.staticAnalysis()
		if s.rec == nil {
			s.rec = static.NewRecorder()
		} else {
			s.rec.Reset()
		}
	}

	t0 := time.Now()
	injectPanic(inj, fault.StageExecute)
	s.prepare(a.cfg, in)
	tr.Attach(s.m)
	if sa != nil {
		tr.SetProbe(s.rec)
	}
	if check := a.checkHook(ctx, tr, inj); check != nil {
		s.m.Check = check
		if inj.TrapAtStep != 0 || inj.StallAtStep != 0 {
			s.m.CheckEvery = 1 // exact injected step counts
		}
	}
	runErr := s.m.Run()
	t1 := time.Now()
	st.Execute = t1.Sub(t0)

	var trapErr error
	if runErr != nil {
		var trap *vm.Trap
		if errors.As(runErr, &trap) {
			trapErr = runErr // partial run, still sound to analyze
		} else {
			return nil, runErr // canceled or over budget: no result
		}
	}
	// Re-check the output cap after the run: a guest that finishes within
	// one poll interval is never seen by the mid-run hook.
	if err := a.cfg.Budget.checkOutput(len(s.m.Output)); err != nil {
		return nil, err
	}

	stage = fault.StageBuild
	injectPanic(inj, fault.StageBuild)
	g := tr.Graph()
	t2 := time.Now()
	st.Build = t2.Sub(t1)
	if err := a.cfg.Budget.checkGraph(g); err != nil {
		return nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}

	stage = fault.StageSolve
	injectPanic(inj, fault.StageSolve)
	if lay == nil {
		lay = new(flowgraph.CSR)
	}
	g.BuildCSR(lay)
	res = solveBound(maxflow.NewSolver(), g, lay, nil, a.cfg.Budget.SolverWork, inj.ExhaustSolver)
	t3 := time.Now()
	st.Solve = t3.Sub(t2)

	stage = fault.StageReport
	injectPanic(inj, fault.StageReport)
	if sa != nil {
		res.Lint = static.CrossCheck(sa, s.rec)
		res.StaticStats = &sa.Stats
	}
	res.TaintedOutputBits = taintedOutputBits(g)
	res.Output, res.ExitCode, res.Steps, res.Trap = s.m.Output, s.m.ExitCode, s.m.Steps, trapErr
	res.Warnings, res.Snapshots = tr.Warnings(), tr.Snapshots()
	res.Stats, res.Mem = tr.Stats(), tr.MemStats()
	res.Cache = CacheTrace{StaticHit: staticHit}
	res.prog = a.prog
	st.Report = time.Since(t3)
	st.Total = time.Since(t0)
	res.Stages = st
	return res, nil
}

// Analyze runs one execution through the staged pipeline on a pooled
// session.
func (a *Analyzer) Analyze(in Inputs) (*Result, error) {
	return a.AnalyzeContext(context.Background(), in)
}

// AnalyzeContext is Analyze under a context: cancellation and deadlines
// are polled between pipeline stages and, during execution, every
// vm.DefaultCheckEvery guest steps, so a stuck guest or an impatient caller
// aborts mid-flight with ErrCanceled.
//
// With Config.Cache set, the run is content-addressed: a repeat of a
// previously analyzed (program, config, inputs) triple returns the cached
// answer without drawing a session or running any stage (Result.Cache
// reports "hit", Stages only the lookup time, Graph and Cut are nil),
// concurrent misses on one key are collapsed to a single computation. The
// miss's own caller gets its full Result. Errors are never cached.
func (a *Analyzer) AnalyzeContext(ctx context.Context, in Inputs) (*Result, error) {
	// Cheap ladder rungs never execute, never draw a session, and skip the
	// result cache: the static rung is already served by the process-global
	// static cache, so a warm answer is a lookup plus arithmetic.
	if res, ok := a.ladderMulti([]Inputs{in}); ok {
		res.Runs = nil
		return res, nil
	}
	if !a.cacheable() {
		res, err := a.analyzeDirect(ctx, in)
		if err == nil && a.cfg.Cache != nil {
			res.Cache.Disposition = CacheBypass
			res.Cache.BypassReason = a.bypassReason()
		}
		return res, err
	}
	key := a.resultKey(in)
	t0 := time.Now()
	var miss *Result
	v, hit, err := a.cfg.Cache.Do(KindResult, key, func() (any, int64, error) {
		res, err := a.analyzeDirect(ctx, in)
		if err != nil {
			return nil, 0, err
		}
		res.Cache.Key = key.Short()
		res.Cache.Disposition = CacheMiss
		miss = res
		ans := res.answer()
		return ans, estimateResultBytes(ans), nil
	})
	if err != nil {
		return nil, err
	}
	if hit {
		// Served from the cache (or coalesced onto another caller's
		// computation): restamp provenance on a copy of the shared value.
		return stampCacheHit(v.(*Result), time.Since(t0), key), nil
	}
	return miss, nil
}

// analyzeDirect runs the pipeline unconditionally on a pooled session.
func (a *Analyzer) analyzeDirect(ctx context.Context, in Inputs) (*Result, error) {
	s := a.acquire()
	defer a.release(s)
	return a.runStages(ctx, s, a.sessionTracker(s), in, a.cfg.Fault.Run(0), nil)
}

func (a *Analyzer) sessionTracker(s *session) *taint.Tracker {
	return fresh(&s.tracker, a.cfg.Taint)
}

// AnalyzeSource compiles MiniC source (through the global compile cache)
// and analyzes one execution.
func AnalyzeSource(filename, src string, in Inputs, cfg Config) (*Result, error) {
	prog, err := CompileCached(filename, src)
	if err != nil {
		return nil, err
	}
	return Analyze(prog, in, cfg)
}

// Analyze runs one execution of prog under the analysis.
func Analyze(prog *vm.Program, in Inputs, cfg Config) (*Result, error) {
	return New(prog, cfg).Analyze(in)
}

// AnalyzeContext runs one execution under a context; see
// (*Analyzer).AnalyzeContext.
func AnalyzeContext(ctx context.Context, prog *vm.Program, in Inputs, cfg Config) (*Result, error) {
	return New(prog, cfg).AnalyzeContext(ctx, in)
}

// AnalyzeBatch analyzes several executions in parallel; see
// (*Analyzer).AnalyzeBatch.
func AnalyzeBatch(prog *vm.Program, inputs []Inputs, cfg Config) (*Result, error) {
	return New(prog, cfg).AnalyzeBatch(inputs)
}

// AnalyzeBatchContext analyzes several executions in parallel under a
// context; see (*Analyzer).AnalyzeBatchContext.
func AnalyzeBatchContext(ctx context.Context, prog *vm.Program, inputs []Inputs, cfg Config) (*Result, error) {
	return New(prog, cfg).AnalyzeBatchContext(ctx, inputs)
}

// AnalyzeClassSet measures per-class disclosure plus the joint bound; see
// (*Analyzer).AnalyzeClassSetContext.
func AnalyzeClassSet(prog *vm.Program, in Inputs, classes []SecretClass, cfg Config) (*ClassAnalysis, error) {
	return New(prog, cfg).AnalyzeClassSet(in, classes)
}

// AnalyzeClassSetContext is AnalyzeClassSet under a context; see
// (*Analyzer).AnalyzeClassSetContext.
func AnalyzeClassSetContext(ctx context.Context, prog *vm.Program, in Inputs, classes []SecretClass, cfg Config) (*ClassAnalysis, error) {
	return New(prog, cfg).AnalyzeClassSetContext(ctx, in, classes)
}

// RunPlain executes prog uninstrumented (the baseline for overhead
// comparisons, and the second machine of the §6.3 lockstep checker). The
// machine escapes to the caller, so it is not drawn from a session pool.
func RunPlain(prog *vm.Program, in Inputs, cfg Config) (*vm.Machine, error) {
	m := vm.NewMachine(prog)
	if cfg.MaxSteps != 0 {
		m.MaxSteps = cfg.MaxSteps
	}
	m.SecretIn = in.Secret
	m.PublicIn = in.Public
	err := m.Run()
	return m, err
}
