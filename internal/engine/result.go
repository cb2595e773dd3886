package engine

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"flowcheck/internal/flowgraph"
	"flowcheck/internal/maxflow"
	"flowcheck/internal/static"
	"flowcheck/internal/taint"
	"flowcheck/internal/vm"
)

// Result reports one analysis.
type Result struct {
	// Bits is the headline number: the maximum flow from secret inputs to
	// public outputs, in bits.
	Bits int64

	// TaintedOutputBits is what plain tainting would report: the total
	// capacity of edges into the sink (§7).
	TaintedOutputBits int64

	// Graph is the constructed flow network and Cut a minimum cut over it.
	// Both are nil when Bits is not a solved max flow, and on a cache hit:
	// the result cache keeps the answer, not the graph, and a hit renders
	// its cut (DescribeCut, CutString, CutSites) from a compact copy. A run
	// posed to an Uncached analyzer always carries its graph.
	// Bits is the flow's value; the flow on each edge is not kept. A check
	// that needs it lays Graph out again, solves it and reads maxflow's
	// (*Solver).EdgeFlow.
	Graph *flowgraph.Graph
	Cut   *maxflow.Cut

	// Execution facts. For multi-run results these are the last run's; the
	// per-run view is in Runs.
	Output   []byte
	ExitCode vm.Word
	Steps    uint64
	Trap     error // non-nil if the guest trapped (result still sound for the partial run)

	// Degraded reports that Bits is a sound but loose upper bound rather
	// than a solved max flow: either the solver work budget ran out and the
	// executed run fell back to its trivial-cut bound, or a cheap precision
	// rung (Config.Precision) answered without executing at all. Rung tells
	// the two apart and DegradedReason says why.
	Degraded       bool
	DegradedReason string

	// Rung records which precision-ladder rung produced Bits: RungFull for
	// a solved max flow, RungTrivial for the trivial bound (both the
	// no-execution trivial rung and a solver-budget degradation, which
	// executed — distinguishable by Executed), RungStatic for the
	// no-execution static capacity bound. Empty only on zero-valued
	// Results.
	Rung string
	// Executed reports that Bits was solved (or degraded) over the flow
	// graph of an execution, false for a no-execution rung answer. A cache
	// hit keeps it, so it tells a solver-budget degradation, which more
	// solver work can tighten, from a cheap rung's bound without a graph.
	Executed bool

	Warnings  []taint.Warning
	Snapshots []taint.Snapshot
	Stats     taint.Stats

	// Mem reports the graph core's size: peak live nodes/edges and totals
	// emitted. For multi-run results, peaks are the maximum across runs
	// and totals sum.
	Mem flowgraph.MemStats

	// Lint holds the static/dynamic cross-check findings when Config.Lint
	// is set (internal/static): empty means the run's tainted branches and
	// enclosure intervals all validated against the inferred regions.
	// Multi-run results deduplicate findings by kind and pc.
	Lint []static.Finding
	// StaticStats summarizes the static pre-pass (functions, blocks,
	// branches, regions, enclosure spans); nil unless Config.Lint is set.
	StaticStats *static.Stats

	// Runs summarizes each execution of a multi-run analysis
	// (AnalyzeBatch), in run order; nil for single-run results.
	Runs []RunSummary

	// Stages records where the pipeline spent its time. For multi-run
	// results the per-stage durations are summed across runs (so under
	// parallel batch they exceed Total, which is wall time).
	Stages StageStats

	// Cache records the run's cache provenance when Config.Cache is set:
	// the disposition (hit/miss/bypass) plus whether the static analysis
	// was reused. The zero value means the run was not content-addressed.
	Cache CacheTrace

	prog *vm.Program
	// cut is a cached answer's minimum cut in compact form, what the cut's
	// renderings read; nil elsewhere (see cutTerms).
	cut []cutTerm
}

// cutTerms returns the minimum cut in compact form: a cached answer's
// own, or one derived from Graph and Cut; nil when Bits is not a solved
// max flow. It never stores what it derives, since cached Results are
// shared.
func (r *Result) cutTerms() []cutTerm {
	if r.cut == nil && r.Cut != nil {
		return compactCut(r.Graph, r.Cut, nil)
	}
	return r.cut
}

// cutTerm is a run of minimum-cut edges that share a label and a
// capacity: all that the cut's renderings read of an edge, so a cached
// answer renders its cut without the graph. A compress run's cut of a
// thousand 8-bit edges at one input site is one term.
type cutTerm struct {
	label flowgraph.Label
	bits  int64
	n     int
}

// compactCut groups the edges of cut over g by label and capacity, at the
// capacities of view (nil: g's own), in site order.
func compactCut(g *flowgraph.Graph, cut *maxflow.Cut, view *flowgraph.CapacityView) []cutTerm {
	terms := make([]cutTerm, len(cut.EdgeIndex))
	for i, idx := range cut.EdgeIndex {
		e := g.Edges[idx]
		terms[i] = cutTerm{label: e.Label, bits: view.Of(idx, e.Cap), n: 1}
	}
	sort.Slice(terms, func(i, j int) bool {
		a, b := terms[i], terms[j]
		if a.label != b.label {
			return labelLess(a.label, b.label)
		}
		return a.bits < b.bits
	})
	runs := terms[:0]
	for _, t := range terms {
		if k := len(runs) - 1; k >= 0 && runs[k].label == t.label && runs[k].bits == t.bits {
			runs[k].n++
			continue
		}
		runs = append(runs, t)
	}
	// A fresh slice, so the entry does not pin one term per cut edge.
	return append([]cutTerm(nil), runs...)
}

func labelLess(a, b flowgraph.Label) bool {
	if a.Site != b.Site {
		return a.Site < b.Site
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.Aux < b.Aux
}

// RunSummary is the per-execution record of a multi-run analysis.
type RunSummary struct {
	// Run is the index into the input slice.
	Run int
	// Bits is the run's standalone bound (the joint Result.Bits is at
	// least the maximum of these over the runs that joined the merge).
	Bits int64
	// OutputBytes is the run's public output length.
	OutputBytes int
	// Steps is the run's executed instruction count.
	Steps uint64
	// ExitCode is the guest's exit code.
	ExitCode vm.Word
	// Trapped reports whether the run ended in a trap.
	Trapped bool
	// Degraded reports whether the run's standalone solve fell back to
	// the trivial-cut bound.
	Degraded bool
	// Rung is the precision-ladder rung that produced the run's bound
	// (see Result.Rung), so batch summaries can tell a budget-degraded
	// full solve from a deliberate cheap-rung answer.
	Rung string
	// Err is the typed failure that excluded this run from a batch merge
	// (ErrCanceled, ErrBudget, ErrInternal, or the trap itself); nil for
	// runs that contribute to the joint bound.
	Err error
}

func summarize(run int, r *Result) RunSummary {
	return RunSummary{
		Run:         run,
		Bits:        r.Bits,
		OutputBytes: len(r.Output),
		Steps:       r.Steps,
		ExitCode:    r.ExitCode,
		Trapped:     r.Trap != nil,
		Degraded:    r.Degraded,
		Rung:        r.Rung,
	}
}

// StageStats is the engine's observability seam: wall time per pipeline
// stage. Multi-run results sum stages across runs; Merge covers the offline
// §3.2 graph merge (batch only) and Solve includes the joint solve.
type StageStats struct {
	Lookup  time.Duration // cache lookup that served the result (full hits: the only nonzero stage)
	Static  time.Duration // one-time static pre-pass (Config.Lint; charged to the run that computed it)
	Execute time.Duration // VM run with tracker attached
	Build   time.Duration // tracker state -> flow network
	Solve   time.Duration // max flow + min cut
	Report  time.Duration // result assembly
	Merge   time.Duration // offline cross-run graph merge (batch)
	Total   time.Duration // wall time for the whole analysis
}

func (st *StageStats) add(o StageStats) {
	st.Lookup += o.Lookup
	st.Static += o.Static
	st.Execute += o.Execute
	st.Build += o.Build
	st.Solve += o.Solve
	st.Report += o.Report
	st.Merge += o.Merge
	st.Total += o.Total
}

// Work reports the pipeline time excluding cache lookups — zero exactly
// when the result was served entirely from the cache.
func (st StageStats) Work() time.Duration {
	return st.Static + st.Execute + st.Build + st.Solve + st.Report + st.Merge
}

func (st StageStats) String() string {
	if st.Work() == 0 && st.Lookup > 0 {
		return fmt.Sprintf("lookup %v, total %v", st.Lookup, st.Total)
	}
	s := fmt.Sprintf("execute %v, build %v, solve %v, report %v", st.Execute, st.Build, st.Solve, st.Report)
	if st.Lookup > 0 {
		s = fmt.Sprintf("lookup %v, ", st.Lookup) + s
	}
	if st.Static > 0 {
		s = fmt.Sprintf("static %v, ", st.Static) + s
	}
	if st.Merge > 0 {
		s += fmt.Sprintf(", merge %v", st.Merge)
	}
	return s + fmt.Sprintf(", total %v", st.Total)
}

// SecretClass names one kind of secret within the secret input stream
// (paper §10.1): the bytes [Off, Off+Len).
type SecretClass struct {
	Name string
	Off  int
	Len  int
}

// ClassResult is the per-class disclosure measurement. Err carries the
// typed failure of a class whose analysis did not complete; its Bits and
// Cut are then meaningless.
type ClassResult struct {
	Class SecretClass
	Bits  int64
	Cut   string

	// Rung, Degraded, and DegradedReason carry the same provenance as
	// Result: RungFull for a solved per-class max flow, RungTrivial (with
	// Degraded set) when the class solve exhausted its work budget and
	// fell back to the class's trivial-cut bound.
	Rung           string
	Degraded       bool
	DegradedReason string

	// Stages is this class's own pipeline cost: just the view solve —
	// Execute and Build are zero because the class performed no execution
	// (the shared run's cost is on ClassAnalysis.Joint).
	Stages StageStats

	Err error
}

// CutEdge is a human-readable description of one minimum-cut edge: a
// program location whose carried bits bound the information revealed
// (§6.1). Cut descriptions drive both checking modes of §6.
type CutEdge struct {
	Where string
	Kind  flowgraph.EdgeKind
	Bits  int64
	Label flowgraph.Label
}

// DescribeCut renders the minimum cut against the program's site table,
// one entry per cut edge, most-capacious edges first.
func (r *Result) DescribeCut() []CutEdge {
	return describeCut(r.prog, r.cutTerms())
}

// describeCut expands a compact cut into its edges in report order: bits
// descending, then location, kind and label, so equal edges are the only
// ties.
func describeCut(prog *vm.Program, cut []cutTerm) []CutEdge {
	if len(cut) == 0 {
		return nil
	}
	type run struct {
		e CutEdge
		n int
	}
	runs := make([]run, len(cut))
	total := 0
	for i, t := range cut {
		where := fmt.Sprintf("site %d", t.label.Site)
		if prog != nil && int(t.label.Site) < len(prog.Code) {
			where = prog.SiteString(prog.Code[t.label.Site].Site)
		}
		runs[i] = run{CutEdge{Where: where, Kind: t.label.Kind, Bits: t.bits, Label: t.label}, t.n}
		total += t.n
	}
	sort.Slice(runs, func(i, j int) bool {
		a, b := runs[i].e, runs[j].e
		if a.Bits != b.Bits {
			return a.Bits > b.Bits
		}
		if a.Where != b.Where {
			return a.Where < b.Where
		}
		return labelLess(a.Label, b.Label)
	})
	out := make([]CutEdge, 0, total)
	for _, r := range runs {
		for range r.n {
			out = append(out, r.e)
		}
	}
	return out
}

// CutString formats the cut for reports: "9 bits = 8@file:3(f)[internal] + 1@file:14(f)[implicit]",
// or "0 bits" for a cut with no edges.
func (r *Result) CutString() string {
	return formatCut(r.Bits, r.DescribeCut())
}

func formatCut(bits int64, edges []CutEdge) string {
	if len(edges) == 0 {
		return fmt.Sprintf("%d bits", bits)
	}
	parts := make([]string, len(edges))
	for i, e := range edges {
		parts[i] = fmt.Sprintf("%d@%s[%s]", e.Bits, e.Where, e.Kind)
	}
	return fmt.Sprintf("%d bits = %s", bits, strings.Join(parts, " + "))
}

// CutSites returns the distinct instruction addresses (graph label sites)
// on the minimum cut, ascending; the checking modes of §6 use them as the
// trusted boundary. A result with no computed cut has no sites.
func (r *Result) CutSites() []uint32 {
	var sites []uint32
	for _, t := range r.cutTerms() { // in site order
		if k := len(sites) - 1; k < 0 || sites[k] != t.label.Site {
			sites = append(sites, t.label.Site)
		}
	}
	return sites
}
