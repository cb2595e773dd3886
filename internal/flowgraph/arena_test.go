package flowgraph

import (
	"math/rand"
	"testing"
	"unsafe"
)

func TestArenaBasics(t *testing.T) {
	a := NewArena()
	if a.NumNodes() != 2 || a.LiveNodes() != 2 {
		t.Fatalf("fresh arena has %d/%d nodes, want 2/2", a.NumNodes(), a.LiveNodes())
	}
	v := a.AddNode()
	w := a.AddNode()
	s1 := a.AddEdge(0, v, 8, Label{Site: 1, Kind: KindInput})
	a.AddEdge(v, w, 5, Label{Site: 2})
	a.AddEdge(w, 1, 8, Label{Site: 3, Kind: KindOutput})
	if a.LiveEdges() != 3 {
		t.Fatalf("LiveEdges = %d, want 3", a.LiveEdges())
	}
	a.Accumulate(s1, Inf)
	if f, to := a.EdgeEnds(s1); f != 0 || to != v {
		t.Fatalf("EdgeEnds = (%d,%d), want (0,%d)", f, to, v)
	}
	g := a.Export(nil)
	if g.NumEdges() != 3 {
		t.Fatalf("exported %d edges, want 3", g.NumEdges())
	}
	if g.Edges[0].Cap != Inf {
		t.Fatalf("accumulated cap = %d, want saturated Inf", g.Edges[0].Cap)
	}
	// v appears first in slot order after the terminals, so it exports as
	// node 2.
	if out, in := g.OutDegree()[2], g.InDegree()[2]; out != 1 || in != 1 {
		t.Fatalf("degree(v) = in %d out %d, want 1/1", in, out)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	m := a.Mem()
	if m.TotalEdges != 3 || m.PeakLiveEdges != 3 || m.TotalNodes != 4 {
		t.Fatalf("mem = %+v", m)
	}
}

func TestArenaCompactChain(t *testing.T) {
	// source -> a -> b -> c -> sink contracts to a single edge of the min cap.
	a := NewArena()
	n1, n2, n3 := a.AddNode(), a.AddNode(), a.AddNode()
	a.AddEdge(0, n1, 9, Label{Site: 1})
	a.AddEdge(n1, n2, 4, Label{Site: 2})
	a.AddEdge(n2, n3, 7, Label{Site: 3})
	a.AddEdge(n3, 1, 8, Label{Site: 4})
	a.CompactSP(nil)
	if a.LiveEdges() != 1 {
		t.Fatalf("LiveEdges = %d, want 1", a.LiveEdges())
	}
	g := a.Export(nil)
	if len(g.Edges) != 1 || g.Edges[0].Cap != 4 || g.Edges[0].From != Source || g.Edges[0].To != Sink {
		t.Fatalf("compacted edge = %+v", g.Edges)
	}
	m := a.Mem()
	if m.SeriesOps != 3 || m.CompactionPasses != 1 || m.LiveNodes != 2 {
		t.Fatalf("mem = %+v", m)
	}
}

func TestArenaCompactParallelAndDeadEnd(t *testing.T) {
	a := NewArena()
	v := a.AddNode()
	dead := a.AddNode()
	a.AddEdge(0, v, 3, Label{Site: 1})
	a.AddEdge(0, v, 4, Label{Site: 2})
	a.AddEdge(v, 1, 10, Label{Site: 3})
	a.AddEdge(v, dead, 5, Label{Site: 4}) // dead is no ancestor of sink
	a.CompactSP(nil)
	g := a.Export(nil)
	if len(g.Edges) != 1 || g.Edges[0].Cap != 7 {
		t.Fatalf("compacted edges = %+v, want one source->sink edge of cap 7", g.Edges)
	}
	m := a.Mem()
	if m.ParallelOps == 0 || m.DeadEnds == 0 {
		t.Fatalf("mem = %+v, want parallel and dead-end ops", m)
	}
}

func TestArenaCompactRespectsProtected(t *testing.T) {
	a := NewArena()
	v := a.AddNode()
	w := a.AddNode()
	a.AddEdge(0, v, 3, Label{Site: 1})
	a.AddEdge(v, w, 2, Label{Site: 2})
	a.AddEdge(w, 1, 3, Label{Site: 3})
	prot := make([]bool, a.NumNodes())
	prot[v] = true
	prot[w] = true
	a.CompactSP(prot)
	if a.LiveEdges() != 3 || a.LiveNodes() != 4 {
		t.Fatalf("protected chain compacted: %d edges, %d nodes", a.LiveEdges(), a.LiveNodes())
	}
	// Unprotect: now the chain contracts and the slots return to the free list.
	a.CompactSP(nil)
	if a.LiveEdges() != 1 {
		t.Fatalf("LiveEdges = %d after unprotected pass, want 1", a.LiveEdges())
	}
	a.AddEdge(0, 1, 1, Label{Site: 9})
	if a.Mem().RecycledSlots == 0 {
		t.Fatal("expected AddEdge to recycle a reclaimed slot")
	}
}

func TestArenaSlotRecycling(t *testing.T) {
	// Emit, compact, emit again: the slot array must not grow past its peak.
	a := NewArena()
	for round := 0; round < 5; round++ {
		v, w := a.AddNode(), a.AddNode()
		a.AddEdge(0, v, 2, Label{Site: uint32(round), Aux: 0})
		a.AddEdge(v, w, 2, Label{Site: uint32(round), Aux: 1})
		a.AddEdge(w, 1, 2, Label{Site: uint32(round), Aux: 2})
		a.CompactSP(nil)
	}
	m := a.Mem()
	if m.TotalEdges < 15 {
		t.Fatalf("TotalEdges = %d, want >= 15", m.TotalEdges)
	}
	if len(a.edges) > 6 {
		t.Fatalf("slot array grew to %d, want <= 6 (recycling)", len(a.edges))
	}
	if m.PeakLiveEdges > 4 {
		t.Fatalf("PeakLiveEdges = %d, want <= 4", m.PeakLiveEdges)
	}
}

// TestArenaExportMatchesGraph checks that Export renumbers nodes by first
// appearance in edge order and preserves edges, caps and labels — the
// contract the historical label-map builder established.
func TestArenaExportMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := NewArena()
	nodes := []int32{0, 1}
	for i := 0; i < 6; i++ {
		nodes = append(nodes, a.AddNode())
	}
	type emitted struct {
		from, to int32
		cap      int64
		lbl      Label
	}
	var want []emitted
	for i := 0; i < 40; i++ {
		f := nodes[rng.Intn(len(nodes))]
		to := nodes[rng.Intn(len(nodes))]
		if f == to || f == 1 || to == 0 {
			continue
		}
		cap := int64(rng.Intn(100))
		lbl := Label{Site: uint32(i)}
		a.AddEdge(f, to, cap, lbl)
		want = append(want, emitted{f, to, cap, lbl})
	}
	got := a.Export(nil)
	if got.NumEdges() != len(want) {
		t.Fatalf("edge count %d != %d", got.NumEdges(), len(want))
	}
	// Replay the first-appearance renumbering rule.
	remap := map[int32]NodeID{0: Source, 1: Sink}
	next := NodeID(2)
	for i, w := range want {
		for _, v := range []int32{w.from, w.to} {
			if _, ok := remap[v]; !ok {
				remap[v] = next
				next++
			}
		}
		e := got.Edges[i]
		if e.From != remap[w.from] || e.To != remap[w.to] || e.Cap != w.cap || e.Label != w.lbl {
			t.Fatalf("edge %d: %+v, want (%d,%d,%d,%+v)", i, e, remap[w.from], remap[w.to], w.cap, w.lbl)
		}
	}
	if got.NumNodes() != int(next) {
		t.Fatalf("NumNodes = %d, want %d", got.NumNodes(), next)
	}
}

// TestBuildCSRLayout checks Graph.BuildCSR against the layout CSR
// documents, from scratch and into a CSR last filled by a larger graph.
func TestBuildCSRLayout(t *testing.T) {
	a := NewArena()
	v, w := a.AddNode(), a.AddNode()
	a.AddEdge(0, v, 3, Label{Site: 1})
	a.AddEdge(v, w, 2, Label{Site: 2})
	a.AddEdge(v, 1, 1, Label{Site: 3})
	a.AddEdge(w, 1, 4, Label{Site: 4})
	g := a.Export(nil)

	big := New()
	prev := Source
	for i := 0; i < 8; i++ {
		n := big.AddNode()
		big.AddEdge(prev, n, int64(i+1), Label{Site: uint32(i)})
		big.AddEdge(n, Sink, 1, Label{Site: uint32(i)})
		prev = n
	}
	var fresh, reused CSR
	big.BuildCSR(&reused)
	g.BuildCSR(&fresh)
	g.BuildCSR(&reused)
	for _, c := range []struct {
		name string
		csr  *CSR
	}{{"fresh", &fresh}, {"reused", &reused}} {
		checkCSRLayout(t, c.name, g, c.csr)
	}
}

func checkCSRLayout(t *testing.T, name string, g *Graph, c *CSR) {
	t.Helper()
	if c.N != g.NumNodes() {
		t.Fatalf("%s: N = %d, want %d", name, c.N, g.NumNodes())
	}
	if len(c.To) != 2*len(g.Edges) || len(c.Cap) != len(g.Edges) || len(c.HArcs) != len(c.To) || len(c.HStart) != c.N+1 {
		t.Fatalf("%s: sizes: %d arcs, %d caps, %d harcs, %d starts for %d edges, %d nodes",
			name, len(c.To), len(c.Cap), len(c.HArcs), len(c.HStart), len(g.Edges), c.N)
	}
	// Edge i is the arc pair (2i, 2i+1) and keeps its capacity in Cap[i].
	for i, e := range g.Edges {
		if c.To[2*i] != int32(e.To) || c.To[2*i+1] != int32(e.From) {
			t.Fatalf("%s: edge %d arcs to %d/%d, want %d/%d", name, i, c.To[2*i], c.To[2*i+1], e.To, e.From)
		}
		if c.Cap[i] != e.Cap {
			t.Fatalf("%s: edge %d: Cap %d, want %d", name, i, c.Cap[i], e.Cap)
		}
	}
	// Each node lists the arcs leaving it (arc a leaves To[a^1]) in arc
	// order.
	for v := int32(0); v < int32(c.N); v++ {
		var want []int32
		for arc := range c.To {
			if c.To[arc^1] == v {
				want = append(want, int32(arc))
			}
		}
		got := c.HArcs[c.HStart[v]:c.HStart[v+1]]
		if len(got) != len(want) {
			t.Fatalf("%s: node %d arcs %v, want %v", name, v, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: node %d arcs %v, want %v", name, v, got, want)
			}
		}
	}
}

// TestRecordSizes pins the per-edge record sizes. Every graph, arena slot
// and cache estimate pays them per edge, so a field reorder that brings
// back padding must fail here rather than silently grow them.
func TestRecordSizes(t *testing.T) {
	var a Arena
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"Label", unsafe.Sizeof(Label{}), 16},
		{"Edge", unsafe.Sizeof(Edge{}), 32},
		{"arena slot", unsafe.Sizeof(a.edges[0]), 32},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}
