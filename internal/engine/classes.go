package engine

// Multi-commodity class analysis (paper §10.1): measure, for each kind of
// secret, how much of it one execution reveals. Classes share topology —
// they differ only in which Source edges carry capacity — so the analysis
// executes the guest ONCE with every secret byte marked and source
// attribution recorded (taint.Options.AttributeSources), then solves one
// per-class capacity view per class against the shared CSR. Per-class cost
// drops from one execution+build+solve to one solve.
//
// Soundness: the execution trace is taint-independent, so the all-marked
// shared graph is an edge superset of any single-class graph, with
// per-label capacities at least as large (taint propagation is monotone in
// the marked set) and endpoint classes at least as merged (more events,
// more label unions — and contracting nodes never lowers max flow). The
// class view gives the class's own source bytes their full 8-bit
// capacities (exactly what the single-class ranging marks), zeroes other
// classes' attributed source capacity, and keeps unattributed source
// capacity (__secret-marked memory, which the ranging path also always
// marks). Max flow is monotone in capacities, so the shared-view bound is
// ≥ the per-class-ranging bound (one plain analysis per class with
// taint.Options.SecretRanges set to the class) — conservative, never
// under-reporting. The corpus-wide equivalence test keeps that per-class
// analysis as its oracle and enforces shared ≥ oracle on every guest.

import (
	"context"
	"runtime/debug"
	"time"

	"flowcheck/internal/cachekey"
	"flowcheck/internal/fault"
	"flowcheck/internal/flowgraph"
	"flowcheck/internal/maxflow"
	"flowcheck/internal/taint"
)

// ClassAnalysis is the result of a class-set analysis.
type ClassAnalysis struct {
	// Classes holds the per-class measurements, in input order.
	Classes []ClassResult
	// Joint is the joint (all-classes-at-once) result of the shared
	// execution — the bound a leakage ledger should charge, since
	// per-class bounds can sum past it (classes share sink capacity: the
	// crowding-out effect). Nil when no classes were given.
	Joint *Result
	// Executions counts guest executions this call performed: 1 for a
	// fresh analysis, 0 when the shared graph came from the cache.
	Executions int
}

// classGraph is the shared artifact behind one (program, config, inputs)
// class analysis: the joint result of the attributed all-marked execution,
// its source attribution, and the prebuilt CSR the per-class solves
// attach to. Immutable after construction (solvers copy capacities into
// their own residuals), so concurrent class solves and cached reuse across
// class sets are safe.
type classGraph struct {
	res    *Result
	srcMap *flowgraph.SourceMap
	csr    flowgraph.CSR
}

// AnalyzeClassSet measures per-class disclosure; see
// AnalyzeClassSetContext.
func (a *Analyzer) AnalyzeClassSet(in Inputs, classes []SecretClass) (*ClassAnalysis, error) {
	return a.AnalyzeClassSetContext(context.Background(), in, classes)
}

// AnalyzeClassSetContext measures, for each secret class, how much of it
// this execution reveals (§10.1), plus the joint bound. Class failures are
// isolated: a failed class carries its typed error in ClassResult.Err
// while the others still report their bounds. Precision is ignored
// (per-class bounds need the per-class flows); the result cache, when
// configured, keys the shared graph by (program, config, inputs), so a
// repeated or changed class set over warm inputs re-solves its views
// without re-executing. The per-class view solves fan across sessionless
// workers — a solve needs only a solver, and each worker owns one.
func (a *Analyzer) AnalyzeClassSetContext(ctx context.Context, in Inputs, classes []SecretClass) (*ClassAnalysis, error) {
	if len(classes) == 0 {
		return &ClassAnalysis{}, nil
	}
	cg, joint, executions, err := a.classGraphFor(ctx, in)
	if err != nil {
		return nil, err
	}
	n := len(classes)
	out := make([]ClassResult, n)
	a.spread(n, func(claim func() int) {
		solver := maxflow.NewSolver()
		for i := claim(); i < n; i = claim() {
			if err := ctxErr(ctx); err != nil {
				out[i] = ClassResult{Class: classes[i], Err: err}
				continue
			}
			out[i] = a.solveClass(solver, cg, classes[i], a.cfg.Fault.Run(i))
		}
	})
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	return &ClassAnalysis{Classes: out, Joint: joint, Executions: executions}, nil
}

// classGraphFor returns the shared class graph for in, via the cache when
// configured, with the joint result this call reports and how many guest
// executions it cost. On a hit nothing executed: the joint result is a
// copy whose stages show only the lookup, as for a single-run hit.
func (a *Analyzer) classGraphFor(ctx context.Context, in Inputs) (*classGraph, *Result, int, error) {
	if !a.cacheable() {
		cg, err := a.buildClassGraph(ctx, in)
		if err != nil {
			return nil, nil, 0, err
		}
		return cg, cg.res, 1, nil
	}
	key := a.classGraphKey(in)
	t0 := time.Now()
	v, hit, err := a.cfg.Cache.Do(KindClassGraph, key, func() (any, int64, error) {
		cg, err := a.buildClassGraph(ctx, in)
		if err != nil {
			return nil, 0, err
		}
		return cg, estimateClassGraphBytes(cg), nil
	})
	if err != nil {
		return nil, nil, 0, err
	}
	cg := v.(*classGraph)
	if hit {
		return cg, stampCacheHit(cg.res, time.Since(t0), key), 0, nil
	}
	return cg, cg.res, 1, nil
}

// buildClassGraph runs the single attributed execution: every secret byte
// marked (no ranging), source attribution on, and the joint solve done by
// the ordinary pipeline. The CSR that solve lays out is the class graph's
// one layout; per-class solves attach to it read-only.
func (a *Analyzer) buildClassGraph(ctx context.Context, in Inputs) (*classGraph, error) {
	s := a.acquire()
	defer a.release(s)
	return a.classGraphOn(ctx, s, in)
}

// classGraphOn is buildClassGraph on a given session, whose attributing
// tracker it recycles.
func (a *Analyzer) classGraphOn(ctx context.Context, s *session, in Inputs) (*classGraph, error) {
	tr := fresh(&s.classTracker, a.classTaintOptions())
	cg := &classGraph{}
	res, err := a.runStages(ctx, s, tr, in, a.cfg.Fault.Run(0), &cg.csr)
	if err != nil {
		return nil, err
	}
	cg.res, cg.srcMap = res, tr.SourceMap(res.Graph)
	return cg, nil
}

// classTaintOptions is the configured tracker options with the class
// machinery applied: all bytes marked and attribution recorded.
func (a *Analyzer) classTaintOptions() taint.Options {
	opts := a.cfg.Taint
	opts.SecretRanges = nil
	opts.AttributeSources = true
	return opts
}

// solveClass runs one class's view solve. Failures are isolated exactly
// like fanOut isolates per-run failures: a panic (genuine or injected) is
// recovered into this class's Err without touching the shared graph or the
// other classes.
func (a *Analyzer) solveClass(solver *maxflow.Solver, cg *classGraph, c SecretClass, inj fault.Injection) (cr ClassResult) {
	t0 := time.Now()
	defer func() {
		if r := recover(); r != nil {
			cr = ClassResult{Class: c, Err: &InternalError{Stage: fault.StageSolve, Value: r, Stack: debug.Stack()}}
		}
	}()
	injectPanic(inj, fault.StageSolve)
	g := cg.res.Graph
	view := cg.srcMap.ClassView(g, flowgraph.ByteRange{Off: c.Off, Len: c.Len})
	if len(view.Edge) == 0 {
		view = nil // class covers every attributed source edge: solve as-is
	}
	b := solveBound(solver, g, &cg.csr, view, a.cfg.Budget.SolverWork, inj.ExhaustSolver)
	cr = ClassResult{Class: c, Bits: b.Bits, Rung: b.Rung, Degraded: b.Degraded, DegradedReason: b.DegradedReason}
	if b.Cut != nil {
		cr.Cut = formatCut(b.Bits, describeCut(a.prog, compactCut(g, b.Cut, view)))
	}
	d := time.Since(t0)
	cr.Stages = StageStats{Solve: d, Total: d}
	return cr
}

// classGraphKey keys the class graph like a result (program x config x
// inputs) but under its own kind — its config slice differs (attribution
// on, ranging off) and its value is the graph+CSR, not a Result. Classes
// do not key it: any class set over the same inputs re-solves on it.
func (a *Analyzer) classGraphKey(in Inputs) cachekey.Key {
	p, c := a.keys()
	return cachekey.New("classgraph/v1").Key(p).Key(c).Key(cachekey.Inputs(in.Secret, in.Public)).Sum()
}

// estimateClassGraphBytes charges the joint result as an answer, plus the
// graph it keeps: the edge store and, in a collapsed graph, the context
// column by capacity (a graph that took over its arena's store may hold up
// to twice its edge count), the cut's edge indices, the CSR and the source
// attribution.
func estimateClassGraphBytes(cg *classGraph) int64 {
	g := cg.res.Graph
	n := estimateResultBytes(cg.res)
	n += int64(cap(g.Edges))*edgeBytes + int64(cap(g.Ctx))*ctxBytes
	if cg.res.Cut != nil {
		n += int64(cap(cg.res.Cut.EdgeIndex)) * 8
	}
	n += cg.csr.Bytes() // reduced network and its map back to the graph
	for _, contribs := range cg.srcMap.Contribs {
		n += 8 + int64(len(contribs))*16
	}
	return n
}
