package taint

import (
	"testing"

	"flowcheck/internal/flowgraph"
	"flowcheck/internal/maxflow"
)

func lbl(site uint32, aux uint8, kind flowgraph.EdgeKind) flowgraph.Key {
	return flowgraph.Key{Site: site, Aux: aux, Kind: kind}
}

func TestBuilderSimpleChain(t *testing.T) {
	b := newBuilder(false, false)
	in, out := b.value(lbl(1, 0, flowgraph.KindInternal), 8)
	b.addEdge(b.srcEl, in, 8, lbl(1, 1, flowgraph.KindInput))
	b.addEdge(out, b.sinkEl, 8, lbl(2, 0, flowgraph.KindOutput))
	g := b.build()
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d, want 3", g.NumEdges())
	}
	if f := maxflow.Compute(g).Flow; f != 8 {
		t.Fatalf("flow = %d, want 8", f)
	}
}

// Collapsed mode: repeating the same site accumulates capacity on one edge
// set rather than growing the graph (§5.2).
func TestBuilderCollapseAccumulates(t *testing.T) {
	b := newBuilder(false, false)
	for i := 0; i < 100; i++ {
		in, out := b.value(lbl(1, 0, flowgraph.KindInternal), 8)
		b.addEdge(b.srcEl, in, 8, lbl(1, 1, flowgraph.KindInput))
		b.addEdge(out, b.sinkEl, 8, lbl(2, 0, flowgraph.KindOutput))
	}
	g := b.build()
	if g.NumEdges() != 3 {
		t.Fatalf("collapsed edges = %d, want 3", g.NumEdges())
	}
	if f := maxflow.Compute(g).Flow; f != 800 {
		t.Fatalf("accumulated flow = %d, want 800", f)
	}
	if b.ar.NumNodes() != 4 { // src, sink, one value pair
		t.Fatalf("arena nodes = %d, want 4 (bounded by labels)", b.ar.NumNodes())
	}
}

// Exact mode: every repetition gets fresh nodes and edges.
func TestBuilderExactGrows(t *testing.T) {
	b := newBuilder(true, false)
	for i := 0; i < 10; i++ {
		in, out := b.value(lbl(1, 0, flowgraph.KindInternal), 8)
		b.addEdge(b.srcEl, in, 8, lbl(1, 1, flowgraph.KindInput))
		b.addEdge(out, b.sinkEl, 8, lbl(2, 0, flowgraph.KindOutput))
	}
	g := b.build()
	if g.NumEdges() != 30 {
		t.Fatalf("exact edges = %d, want 30", g.NumEdges())
	}
	// Ten disjoint 8-bit paths.
	if f := maxflow.Compute(g).Flow; f != 80 {
		t.Fatalf("flow = %d, want 80", f)
	}
}

func TestBuilderCapSaturates(t *testing.T) {
	b := newBuilder(false, false)
	in, out := b.value(lbl(1, 0, flowgraph.KindInternal), flowgraph.Inf)
	b.addEdge(b.srcEl, in, flowgraph.Inf, lbl(1, 1, flowgraph.KindInput))
	b.addEdge(b.srcEl, in, flowgraph.Inf, lbl(1, 1, flowgraph.KindInput))
	b.addEdge(out, b.sinkEl, 4, lbl(2, 0, flowgraph.KindOutput))
	g := b.build()
	for _, e := range g.Edges {
		if e.Cap > flowgraph.Inf {
			t.Fatalf("capacity overflow: %d", e.Cap)
		}
	}
	if f := maxflow.Compute(g).Flow; f != 4 {
		t.Fatalf("flow = %d, want 4", f)
	}
}

// Unioning endpoints through repeated labels keeps the graph connected
// correctly: two different intermediates merged by a shared edge label.
func TestBuilderUnionMergesClasses(t *testing.T) {
	b := newBuilder(false, false)
	// Two executions of "site 5" with different downstream consumers.
	in1, out1 := b.value(lbl(5, 0, flowgraph.KindInternal), 8)
	b.addEdge(b.srcEl, in1, 8, lbl(5, 1, flowgraph.KindInput))
	in2, out2 := b.value(lbl(5, 0, flowgraph.KindInternal), 8)
	b.addEdge(b.srcEl, in2, 8, lbl(5, 1, flowgraph.KindInput))
	if in1 != in2 || out1 != out2 {
		t.Fatal("collapsed values at the same site must be canonical")
	}
	b.addEdge(out2, b.sinkEl, 16, lbl(6, 0, flowgraph.KindOutput))
	g := b.build()
	if f := maxflow.Compute(g).Flow; f != 16 {
		t.Fatalf("flow = %d, want 16", f)
	}
}

func TestBuilderSelfLoopDropped(t *testing.T) {
	b := newBuilder(false, false)
	in, out := b.value(lbl(1, 0, flowgraph.KindInternal), 8)
	// Force a union that turns an edge into a self-loop: two edges under
	// one key, from in and from out, unite the two halves.
	b.addEdge(in, b.sinkEl, 1, lbl(3, 0, flowgraph.KindOutput))
	b.addEdge(out, b.sinkEl, 1, lbl(3, 0, flowgraph.KindOutput))
	b.addEdge(b.srcEl, in, 8, lbl(1, 1, flowgraph.KindInput))
	b.addEdge(out, b.sinkEl, 8, lbl(2, 0, flowgraph.KindOutput))
	g := b.build()
	if err := g.Validate(); err != nil {
		t.Fatalf("graph invalid: %v", err)
	}
	if g.NumEdges() != 3 { // the value's internal edge is the self-loop
		t.Fatalf("edges = %d, want 3", g.NumEdges())
	}
	if f := maxflow.Compute(g).Flow; f != 8 {
		t.Fatalf("flow = %d, want 8", f)
	}
}

func TestBuilderRebuildIsStable(t *testing.T) {
	b := newBuilder(false, false)
	in, out := b.value(lbl(1, 0, flowgraph.KindInternal), 8)
	b.addEdge(b.srcEl, in, 8, lbl(1, 1, flowgraph.KindInput))
	b.addEdge(out, b.sinkEl, 8, lbl(2, 0, flowgraph.KindOutput))
	g1 := b.build()
	g2 := b.build()
	if g1.NumEdges() != g2.NumEdges() || g1.NumNodes() != g2.NumNodes() {
		t.Fatal("build is not repeatable")
	}
	f1 := maxflow.Compute(g1).Flow
	f2 := maxflow.Compute(g2).Flow
	if f1 != f2 {
		t.Fatalf("flows differ: %d vs %d", f1, f2)
	}
}
