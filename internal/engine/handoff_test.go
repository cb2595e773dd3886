package engine

import (
	"context"
	"slices"
	"testing"

	"flowcheck/internal/fault"
	"flowcheck/internal/flowgraph"
	"flowcheck/internal/guest"
	"flowcheck/internal/taint"
	"flowcheck/internal/workload"
)

// A run's graph takes over its tracker's edge store. The session that
// built it goes on to a larger and then a smaller run; if the arena kept
// any hold on the store, one of them would write over the first graph.
func TestTakenGraphSurvivesSessionReuse(t *testing.T) {
	a := New(guest.Program("compress"), Config{Workers: 1, Taint: taint.Options{Exact: true}})
	s := a.acquire()
	defer a.release(s)
	run := func(n int) *Result {
		res, err := a.runStages(context.Background(), s, a.sessionTracker(s), Inputs{Secret: workload.PiWords(n)}, fault.Injection{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run(512)
	edges := slices.Clone(first.Graph.Edges)
	nodes := first.Graph.NumNodes()
	stats, mem := first.Stats, first.Mem
	if mem.TotalEdges != stats.LabelledEdges || mem.TotalEdges < len(edges) {
		t.Fatalf("taken run reports %d arena edges (stats %d) for a %d-edge graph", mem.TotalEdges, stats.LabelledEdges, len(edges))
	}
	larger, smaller := run(1024), run(256)
	if n := larger.Graph.NumEdges(); n <= len(edges) || smaller.Graph.NumEdges() >= len(edges) {
		t.Fatalf("runs of %d, %d and %d edges do not bracket the first", len(edges), n, smaller.Graph.NumEdges())
	}
	if !slices.Equal(first.Graph.Edges, edges) || first.Graph.NumNodes() != nodes {
		t.Fatal("a later run on the same session changed the first run's graph")
	}
	if err := certifyAnswer(first.Graph, nil, first); err != nil {
		t.Fatalf("first run's flow no longer certifies: %v", err)
	}
	if first.Stats != stats || first.Mem != mem {
		t.Fatalf("first run's counts changed: stats %+v mem %+v, were %+v %+v", first.Stats, first.Mem, stats, mem)
	}
}

// A graph may keep spare capacity from its arena's store and context
// column, but never more than its own size: sessions size each store by
// the last graph, so a small run after a large one is the case that would
// leave slack.
func TestReturnedGraphsHaveBoundedSlack(t *testing.T) {
	check := func(what string, g *flowgraph.Graph) {
		t.Helper()
		if cap(g.Edges) > 2*len(g.Edges) || cap(g.Ctx) > 2*len(g.Ctx) {
			t.Errorf("%s: graph of %d edges holds a %d-edge store and a %d-word context column", what, len(g.Edges), cap(g.Edges), cap(g.Ctx))
		}
	}
	for _, exact := range []bool{true, false} {
		a := New(guest.Program("compress"), Config{Workers: 1, Taint: taint.Options{Exact: exact}})
		for _, n := range []int{1024, 64, 512, 16} {
			in := Inputs{Secret: workload.PiWords(n)}
			res, err := a.Analyze(in)
			if err != nil {
				t.Fatal(err)
			}
			check("Analyze", res.Graph)
			ca, err := a.AnalyzeClassSet(in, []SecretClass{{Name: "head", Off: 0, Len: n / 2}})
			if err != nil {
				t.Fatal(err)
			}
			check("AnalyzeClassSet", ca.Joint.Graph)
		}
		batch, err := a.AnalyzeBatch([]Inputs{{Secret: workload.PiWords(1024)}, {Secret: workload.PiWords(32)}, {Secret: workload.PiWords(32)}})
		if err != nil {
			t.Fatal(err)
		}
		check("AnalyzeBatch", batch.Graph)
	}
}

// The cache budget charges a class graph's edge store and context column
// by capacity, slack included, for the graphs the engine builds in either
// mode. A cached answer keeps no graph, and its price has no graph term.
func TestCacheChargesEdgeCapacity(t *testing.T) {
	charge := func(g *flowgraph.Graph) int64 {
		cg := &classGraph{res: &Result{Graph: g}, srcMap: &flowgraph.SourceMap{}}
		return estimateClassGraphBytes(cg) - estimateResultBytes(cg.res)
	}
	if got, want := charge(&flowgraph.Graph{Edges: make([]flowgraph.Edge, 10, 30)}), 30*edgeBytes; got != want {
		t.Fatalf("class graph of 10 edges in a 30-edge store charged %d B for edges, want %d", got, want)
	}
	collapsed := &flowgraph.Graph{Edges: make([]flowgraph.Edge, 10, 30), Ctx: make([]uint64, 10, 20)}
	if got, want := charge(collapsed), 30*edgeBytes+20*8; got != want {
		t.Fatalf("collapsed 10-edge class graph in a 30-edge store and 20-word column charged %d B, want %d", got, want)
	}
	for _, exact := range []bool{true, false} {
		r, err := Analyze(guest.Program("compress"), Inputs{Secret: workload.PiWords(256)}, Config{Taint: taint.Options{Exact: exact}})
		if err != nil {
			t.Fatal(err)
		}
		g := r.Graph
		if g.Exact != exact || (g.Ctx == nil) != exact {
			t.Fatalf("exact=%v engine graph: Exact %v, %d context words", exact, g.Exact, len(g.Ctx))
		}
		if got, want := charge(g), int64(cap(g.Edges))*24+int64(cap(g.Ctx))*8; got != want {
			t.Fatalf("exact=%v class graph of %d edges charged %d B, want %d (24 B an edge, 8 a context word)", exact, len(g.Edges), got, want)
		}
		if ans := r.answer(); ans.Graph != nil || estimateResultBytes(ans) > 4096 {
			t.Fatalf("exact=%v answer of a %d-edge graph keeps graph %v, charged %d B", exact, len(g.Edges), ans.Graph != nil, estimateResultBytes(ans))
		}
	}
}
