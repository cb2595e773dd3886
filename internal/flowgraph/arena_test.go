package flowgraph

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

func TestArenaBasics(t *testing.T) {
	a := NewArena(false)
	if a.NumNodes() != 2 || a.NumEdges() != 0 {
		t.Fatalf("fresh arena has %d nodes, %d edges, want 2, 0", a.NumNodes(), a.NumEdges())
	}
	v := a.AddNode()
	w := a.AddNode()
	s1 := a.AddEdge(0, v, 8, Key{Site: 1, Kind: KindInput})
	a.AddEdge(v, w, 5, Key{Site: 2})
	a.AddEdge(w, 1, 8, Key{Site: 3, Kind: KindOutput})
	if a.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", a.NumEdges())
	}
	a.Accumulate(s1, Inf)
	if f, to := a.EdgeEnds(s1); f != 0 || to != v {
		t.Fatalf("EdgeEnds = (%d,%d), want (0,%d)", f, to, v)
	}
	g := a.Export()
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
	if g.Exact || !slices.Equal(g.Ctx, []uint64{0, 0, 0}) {
		t.Fatalf("collapsed export: Exact %v, context column %v, want false and three zeros", g.Exact, g.Ctx)
	}
	m := a.Mem()
	if m.TotalEdges != 3 || m.PeakLiveEdges != 3 || m.TotalNodes != 4 || m.PeakLiveNodes != 4 {
		t.Fatalf("mem = %+v", m)
	}
	a.Reset()
	if a.NumNodes() != 2 || a.NumEdges() != 0 || a.Mem() != (MemStats{2, 0, 2, 0}) {
		t.Fatalf("reset arena: %d nodes, %d edges, mem %+v", a.NumNodes(), a.NumEdges(), a.Mem())
	}
}

// TestArenaExportMatchesGraph checks that Export renumbers nodes by first
// appearance in edge order and preserves edges, caps and labels — the
// contract the historical label-map builder established — and, from a
// collapsed arena, each edge's context word; an exact arena exports no
// context column.
func TestArenaExportMatchesGraph(t *testing.T) {
	for _, exact := range []bool{false, true} {
		rng := rand.New(rand.NewSource(7))
		a := NewArena(exact)
		nodes := []int32{0, 1}
		for i := 0; i < 6; i++ {
			nodes = append(nodes, a.AddNode())
		}
		type emitted struct {
			from, to int32
			cap      int64
			k        Key
		}
		var want []emitted
		for i := 0; i < 40; i++ {
			f := nodes[rng.Intn(len(nodes))]
			to := nodes[rng.Intn(len(nodes))]
			if f == to || f == 1 || to == 0 {
				continue
			}
			cap := int64(rng.Intn(100))
			k := Key{Site: uint32(i), Ctx: rng.Uint64()}
			a.AddEdge(f, to, cap, k)
			want = append(want, emitted{f, to, cap, k})
		}
		got := a.Export()
		if got.NumEdges() != len(want) || got.Exact != exact || (exact && got.Ctx != nil) {
			t.Fatalf("exact %v: %d edges, Exact %v, %d context words; want %d edges", exact, got.NumEdges(), got.Exact, len(got.Ctx), len(want))
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
			wk := w.k
			if exact {
				wk.Ctx = 0
			}
			e := got.Edges[i]
			if e.From != remap[w.from] || e.To != remap[w.to] || e.Cap != w.cap || got.Key(i) != wk {
				t.Fatalf("exact %v: edge %d: %+v key %+v, want (%d,%d,%d,%+v)", exact, i, e, got.Key(i), remap[w.from], remap[w.to], w.cap, wk)
			}
		}
		if got.NumNodes() != int(next) {
			t.Fatalf("exact %v: NumNodes = %d, want %d", exact, got.NumNodes(), next)
		}
	}
}

// TestBuildCSRLayout checks Graph.BuildCSR against the layout CSR
// documents, from scratch and into a CSR last filled by a larger graph.
func TestBuildCSRLayout(t *testing.T) {
	// Source→v, then v→w→Sink and v→Sink: w is interior, so v has two
	// chains to Sink that merge into one arc of capacity min(2,4)+1.
	g := New()
	v, w := g.AddNode(), g.AddNode()
	g.AddEdge(Source, v, 3, Label{Site: 1})
	g.AddEdge(v, w, 2, Label{Site: 2})
	g.AddEdge(v, Sink, 1, Label{Site: 3})
	g.AddEdge(w, Sink, 4, Label{Site: 4})

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
	checkCSRLayout(t, "big", big, &reused)
	g.BuildCSR(&fresh)
	g.BuildCSR(&reused)
	for _, c := range []struct {
		name string
		csr  *CSR
	}{{"fresh", &fresh}, {"reused", &reused}} {
		checkCSRLayout(t, c.name, g, c.csr)
		if got, want := fmt.Sprint(c.csr.Node, c.csr.ChainArc, c.csr.ChainCap, c.csr.To), "[0 1 2 -4] [0 1 1] [3 2 1] [2 0 1 2]"; got != want {
			t.Fatalf("%s: Node ChainArc ChainCap To = %s, want %s", c.name, got, want)
		}
	}
}

// checkCSRLayout checks the CSR invariants: dense kept ids in node order,
// interior nodes linked to their one out-edge, every edge on exactly one
// chain at the chain's minimum capacity, one arc per (head, end) pair,
// and each node listing the arcs leaving it in arc order.
func checkCSRLayout(t *testing.T, name string, g *Graph, c *CSR) {
	t.Helper()
	in, out := g.InDegree(), g.OutDegree()
	if len(c.Node) != g.NumNodes() || len(c.Edges) != len(g.Edges) || len(c.HStart) != c.N+1 || len(c.HArcs) != len(c.To) || len(c.ChainCap) != len(c.ChainArc) {
		t.Fatalf("%s: sizes: %d node ids, %d edges, %d starts, %d harcs, %d arcs, %d/%d chains",
			name, len(c.Node), len(c.Edges), len(c.HStart), len(c.HArcs), len(c.To), len(c.ChainArc), len(c.ChainCap))
	}
	kept := int32(0)
	for v, x := range c.Node {
		interior := v > int(Sink) && in[v] == 1 && out[v] == 1
		switch {
		case interior && (x >= 0 || g.Edges[^x].From != NodeID(v)):
			t.Fatalf("%s: interior node %d: Node %d is not ^its out-edge", name, v, x)
		case !interior && x != kept:
			t.Fatalf("%s: kept node %d: id %d, want %d", name, v, x, kept)
		case !interior:
			kept++
		}
	}
	if c.N != int(kept) {
		t.Fatalf("%s: N = %d, want %d", name, c.N, kept)
	}
	onChain := make([]bool, len(g.Edges))
	pairs := map[[2]int32]int32{}
	ch := 0
	for i := range g.Edges {
		if !c.ChainHead(i) {
			continue
		}
		capc, last := int64(1<<62), i
		for e := i; e >= 0; e = c.Next(e) {
			if onChain[e] {
				t.Fatalf("%s: edge %d on two chains", name, e)
			}
			onChain[e] = true
			capc, last = min(capc, g.Edges[e].Cap), e
		}
		a := c.ChainArc[ch]
		ends := [2]int32{c.Node[g.Edges[i].From], c.Node[g.Edges[last].To]}
		if c.To[2*a+1] != ends[0] || c.To[2*a] != ends[1] || c.ChainCap[ch] != capc {
			t.Fatalf("%s: chain %d: arc %d (%d→%d) cap %d, want %d→%d cap %d",
				name, ch, a, c.To[2*a+1], c.To[2*a], c.ChainCap[ch], ends[0], ends[1], capc)
		}
		if b, ok := pairs[ends]; ok && b != a {
			t.Fatalf("%s: arcs %d and %d both run %d→%d", name, b, a, ends[0], ends[1])
		}
		pairs[ends] = a
		ch++
	}
	if ch != len(c.ChainArc) || len(pairs) != c.NumArcs() {
		t.Fatalf("%s: %d chains and %d arcs walked, CSR has %d and %d", name, ch, len(pairs), len(c.ChainArc), c.NumArcs())
	}
	for e, ok := range onChain {
		if !ok {
			t.Fatalf("%s: edge %d on no chain", name, e)
		}
	}
	for r := int32(0); r < int32(c.N); r++ {
		var want []int32
		for arc := range c.To {
			if c.To[arc^1] == r {
				want = append(want, int32(arc))
			}
		}
		if got := c.HArcs[c.HStart[r]:c.HStart[r+1]]; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: node %d arcs %v, want %v", name, r, got, want)
		}
	}
}

// TestRecordSizes pins the per-edge record sizes. Every graph, arena slot
// and cache estimate pays them per edge — an exact one 24 bytes, a
// collapsed one 32 with its context word — so a field reorder that brings
// back padding, or a field that moves back onto the edge, must fail here
// rather than silently grow them.
func TestRecordSizes(t *testing.T) {
	var a Arena
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"Label", unsafe.Sizeof(Label{}), 8},
		{"Edge", unsafe.Sizeof(Edge{}), 24},
		{"arena slot", unsafe.Sizeof(a.edges[0]), 24},
		{"context word", unsafe.Sizeof(a.ctx[0]), 8},
		{"Key", unsafe.Sizeof(Key{}), 16},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}

// fuzzArena replays fuzz bytes into an arena, three bytes per operation:
// add a node (some stay edgeless), add an edge between any two nodes
// (self-loops and edges into Source or out of Sink included, capacities
// past Inf too) under a fresh key, accumulate into an earlier slot, or add
// an edge under an earlier edge's key, which a collapsed arena merges
// into that slot, unioning endpoints. The arena first hands off spare
// edges, so Reset sizes its store with that much room.
func fuzzArena(data []byte, spare int, collapsed bool) *Arena {
	a := NewArena(!collapsed)
	for i := 0; i < spare; i++ {
		a.AddEdge(0, 1, 1, Key{Site: uint32(i)})
	}
	a.Take()
	a.Reset()
	var keys []Key
	for i := 0; i+2 < len(data); i += 3 {
		op, x, y := data[i], int32(data[i+1]), int32(data[i+2])
		n := int32(a.NumNodes())
		switch op % 8 {
		case 0:
			a.AddNode()
		case 1:
			if e := a.NumEdges(); e > 0 {
				a.Accumulate(x%int32(e), int64(y)<<41)
			}
		case 2:
			if len(keys) > 0 {
				a.AddEdge(x%n, y%n, int64(op)<<(y%50), keys[int(x)%len(keys)])
			}
		default:
			k := Key{Site: uint32(x), Aux: op, Ctx: uint64(i)}
			a.AddEdge(x%n, y%n, int64(op)<<(y%50), k)
			keys = append(keys, k)
		}
	}
	return a
}

// FuzzArenaTake checks the in-place hand-off against the copying export:
// the same graph, a store at most twice its size, counts still reported,
// no store left behind, and a Reset arena that does not write into the
// graph. It also checks Reset's sizing rule over a run of arenas with one
// ten times the others: each store has room for min(max(last size, last
// count), 2·last count) edges, allocated by the first edge, so the outlier
// sizes only the store after it.
func FuzzArenaTake(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 0, 2, 3, 2, 3, 3, 3, 1, 1, 0, 9, 4, 2, 0}, uint8(0), false)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 3, 0, 2, 3, 2, 3, 2, 2, 3, 3, 3, 1, 11, 1, 0, 4, 3, 3, 5, 4, 0}, uint8(200), true)
	f.Add([]byte{0, 0, 0, 2, 0, 1, 3, 2, 1, 7, 0, 2}, uint8(3), true)
	f.Add([]byte{}, uint8(9), false)
	// A collapsed run whose context column outgrew twice the graph while
	// its edge store did not.
	f.Add([]byte("700700700700000700700700701701700000000701700000700701701000702702702702700702702710702702700700702702700702702700702700700700"), uint8(9), true)
	f.Fuzz(func(t *testing.T, data []byte, spare uint8, collapsed bool) {
		want := fuzzArena(data, int(spare), collapsed).Export()
		a := fuzzArena(data, int(spare), collapsed)
		mem := a.Mem()
		got := a.Take()
		if got.NumNodes() != want.NumNodes() || !slices.Equal(got.Edges, want.Edges) || !slices.Equal(got.Ctx, want.Ctx) {
			t.Fatalf("Take: %d nodes %v ctx %v\nExport: %d nodes %v ctx %v", got.NumNodes(), got.Edges, got.Ctx, want.NumNodes(), want.Edges, want.Ctx)
		}
		if got.Exact != !collapsed || (got.Exact && got.Ctx != nil) || got.Validate() != nil {
			t.Fatalf("taken graph of an exact=%v arena: Exact %v, %d context words, Validate %v", !collapsed, got.Exact, len(got.Ctx), got.Validate())
		}
		if cap(got.Edges) > 2*len(got.Edges) || cap(got.Ctx) > 2*len(got.Ctx) {
			t.Fatalf("taken graph of %d edges keeps a %d-edge store and %d-word column", len(got.Edges), cap(got.Edges), cap(got.Ctx))
		}
		if a.Mem() != mem || a.NumNodes() != mem.TotalNodes || a.NumEdges() != mem.TotalEdges || a.Bytes() != 0 {
			t.Fatalf("taken arena: mem %+v, %d nodes, %d edges, %d B; before Take mem %+v", a.Mem(), a.NumNodes(), a.NumEdges(), a.Bytes(), mem)
		}
		// Every edge added from here on has a key of its own, so a
		// collapsed arena grows its store with each.
		var v int32
		site := uint32(0)
		addEdge := func() {
			site++
			a.AddEdge(0, v, 1, Key{Site: site})
		}
		// reset resets the arena after a run that filled a store of last
		// edges, checks the next store against Reset's rule, allocated
		// by the first edge and not before, and returns its size.
		reset := func(last int) int {
			n := a.NumEdges()
			a.Reset()
			if a.Bytes() != 0 {
				t.Fatalf("Reset allocated %d B before any edge", a.Bytes())
			}
			v = a.AddNode()
			addEdge()
			want := min(max(last, n), 2*n)
			if cap(a.edges) != max(want, 1) {
				t.Fatalf("Reset after a %d-edge store and a %d-edge run made room for %d, want %d", last, n, cap(a.edges), want)
			}
			ctxCap := cap(a.edges)
			if a.exact {
				ctxCap = 0
			}
			if cap(a.ctx) != ctxCap {
				t.Fatalf("exact=%v arena's context column has room for %d words beside a %d-edge store", a.exact, cap(a.ctx), cap(a.edges))
			}
			return want
		}
		stores := []int{reset(int(spare))} // fuzzArena's first store held the spare edges
		for a.NumEdges() <= mem.TotalEdges {
			addEdge()
		}
		if !slices.Equal(got.Edges, want.Edges) || !slices.Equal(got.Ctx, want.Ctx) {
			t.Fatal("edges added after Reset changed the taken graph")
		}

		small := mem.TotalEdges + 1
		runs := []int{small, 10 * small, 1 + int(spare)%small, small}
		for _, n := range runs {
			for a.NumEdges() < n {
				addEdge()
			}
			a.Take()
			stores = append(stores, reset(stores[len(stores)-1]))
		}
		// stores[i] is the store run i filled: the outlier is run 1, so
		// stores[3] is sized after run 2, the run in between.
		if stores[3] > 2*runs[2] {
			t.Fatalf("runs %v: the store two resets after the outlier has room for %d edges, over twice the %d-edge run in between", runs, stores[3], runs[2])
		}
	})
}

// TestArenaCollapsesByKey checks the key index: in a collapsed arena an
// edge under a key the arena holds adds its capacity to that slot,
// saturating at Inf, and unions its endpoints with the slot's; an exact
// arena appends every edge, and Slot never finds one.
func TestArenaCollapsesByKey(t *testing.T) {
	k := Key{Site: 7, Ctx: 3}
	a := NewArena(false)
	u, v, w, x := a.AddNode(), a.AddNode(), a.AddNode(), a.AddNode()
	s := a.AddEdge(u, v, 5, k)
	a.AddEdge(0, u, 8, Key{Site: 1})
	a.AddEdge(x, 1, 8, Key{Site: 2})
	if got := a.AddEdge(w, x, 6, k); got != s {
		t.Fatalf("repeated key went to slot %d, want %d", got, s)
	}
	if slot, ok := a.Slot(k); !ok || slot != s {
		t.Fatalf("Slot = %d, %v, want %d, true", slot, ok, s)
	}
	if _, ok := a.Slot(Key{Site: 7}); ok {
		t.Fatal("Slot found a key that differs in its context word")
	}
	g := a.Export()
	// u∪w and v∪x: Source→u, u→v and v→Sink remain, 11 bits wide inside.
	if a.NumEdges() != 3 || g.NumNodes() != 4 || g.Edges[0].Cap != 11 {
		t.Fatalf("%d arena edges, graph of %d nodes %v; want 3 edges over 4 nodes, slot 0 holding 11", a.NumEdges(), g.NumNodes(), g.Edges)
	}
	if g.Edges[0].From != g.Edges[1].To || g.Edges[0].To != g.Edges[2].From {
		t.Fatalf("repeated key did not union its endpoints: %v", g.Edges)
	}
	a.AddEdge(u, v, Inf, k)
	if g := a.Export(); g.Edges[0].Cap != Inf {
		t.Fatalf("accumulated cap = %d, want saturated Inf", g.Edges[0].Cap)
	}

	e := NewArena(true)
	u, v = e.AddNode(), e.AddNode()
	if s1, s2 := e.AddEdge(u, v, 5, k), e.AddEdge(u, v, 6, k); s1 == s2 || e.NumEdges() != 2 {
		t.Fatalf("exact arena: slots %d and %d, %d edges; want two edges", s1, s2, e.NumEdges())
	}
	if _, ok := e.Slot(k); ok {
		t.Fatal("Slot found a key in an exact arena")
	}
}

// TestArenaTakenRejectsEdges checks that a taken arena of either mode
// refuses an edge, under a new key or one its store held.
func TestArenaTakenRejectsEdges(t *testing.T) {
	for _, exact := range []bool{true, false} {
		for _, k := range []Key{{Site: 1}, {Site: 2}} {
			a := NewArena(exact)
			v := a.AddNode()
			a.AddEdge(0, v, 1, Key{Site: 1})
			a.Take()
			func() {
				defer func() {
					if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "taken") {
						t.Fatalf("exact=%v: AddEdge under %+v on a taken arena: panic %v, want the taken-store panic", exact, k, r)
					}
				}()
				a.AddEdge(v, 1, 1, k)
			}()
		}
	}
}
