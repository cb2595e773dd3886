package spqr

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flowcheck/internal/flowgraph"
	"flowcheck/internal/maxflow"
)

func TestSeriesChainCollapses(t *testing.T) {
	g := flowgraph.New()
	prev := flowgraph.Source
	for i := 0; i < 10; i++ {
		n := g.AddNode()
		g.AddEdge(prev, n, int64(10+i), flowgraph.Label{})
		prev = n
	}
	g.AddEdge(prev, flowgraph.Sink, 5, flowgraph.Label{})
	red, st := Reduce(g)
	if red.NumEdges() != 1 {
		t.Fatalf("chain should collapse to one edge, got %d", red.NumEdges())
	}
	if red.Edges[0].Cap != 5 {
		t.Fatalf("series capacity = %d, want 5 (min)", red.Edges[0].Cap)
	}
	if st.SeriesOps == 0 {
		t.Fatal("no series reductions recorded")
	}
}

func TestParallelEdgesMerge(t *testing.T) {
	g := flowgraph.New()
	for i := 0; i < 4; i++ {
		g.AddEdge(flowgraph.Source, flowgraph.Sink, 3, flowgraph.Label{})
	}
	red, st := Reduce(g)
	if red.NumEdges() != 1 || red.Edges[0].Cap != 12 {
		t.Fatalf("parallel merge wrong: %d edges, cap %v", red.NumEdges(), red.Edges)
	}
	if st.ParallelOps != 3 {
		t.Fatalf("ParallelOps = %d, want 3", st.ParallelOps)
	}
}

func TestDeadEndRemoved(t *testing.T) {
	g := flowgraph.New()
	a := g.AddNode()
	dead := g.AddNode()
	g.AddEdge(flowgraph.Source, a, 8, flowgraph.Label{})
	g.AddEdge(a, flowgraph.Sink, 8, flowgraph.Label{})
	g.AddEdge(a, dead, 8, flowgraph.Label{}) // leads nowhere
	red, _ := Reduce(g)
	for _, e := range red.Edges {
		if e.To != flowgraph.Sink && e.From != flowgraph.Source && e.To == e.From {
			t.Fatalf("unexpected edge %+v", e)
		}
	}
	// The whole thing is series-parallel: must reduce to a single s-t edge.
	if red.NumEdges() != 1 || red.Edges[0].Cap != 8 {
		t.Fatalf("expected single 8-cap edge, got %+v", red.Edges)
	}
}

func TestDiamondReduces(t *testing.T) {
	// source -> a -> sink via two parallel interior paths: fully SP.
	g := flowgraph.New()
	a, b := g.AddNode(), g.AddNode()
	g.AddEdge(flowgraph.Source, a, 10, flowgraph.Label{})
	g.AddEdge(flowgraph.Source, b, 10, flowgraph.Label{})
	g.AddEdge(a, flowgraph.Sink, 4, flowgraph.Label{})
	g.AddEdge(b, flowgraph.Sink, 3, flowgraph.Label{})
	red, _ := Reduce(g)
	if red.NumEdges() != 1 || red.Edges[0].Cap != 7 {
		t.Fatalf("diamond should reduce to one 7-cap edge: %+v", red.Edges)
	}
}

func TestNonSPCoreRemains(t *testing.T) {
	// K4-like crossing structure is not series-parallel reducible.
	g := flowgraph.New()
	a, b, c, d := g.AddNode(), g.AddNode(), g.AddNode(), g.AddNode()
	g.AddEdge(flowgraph.Source, a, 1, flowgraph.Label{})
	g.AddEdge(flowgraph.Source, b, 1, flowgraph.Label{})
	g.AddEdge(a, c, 1, flowgraph.Label{})
	g.AddEdge(a, d, 1, flowgraph.Label{})
	g.AddEdge(b, c, 1, flowgraph.Label{})
	g.AddEdge(b, d, 1, flowgraph.Label{})
	g.AddEdge(c, flowgraph.Sink, 1, flowgraph.Label{})
	g.AddEdge(d, flowgraph.Sink, 1, flowgraph.Label{})
	red, st := Reduce(g)
	if red.NumEdges() < 4 {
		t.Fatalf("crossing core should not fully reduce: %d edges", red.NumEdges())
	}
	if st.CoreFraction <= 0 || st.CoreFraction > 1 {
		t.Fatalf("CoreFraction = %v", st.CoreFraction)
	}
}

func randomDAG(rng *rand.Rand, nodes, edges int) *flowgraph.Graph {
	g := flowgraph.New()
	ids := []flowgraph.NodeID{flowgraph.Source}
	for i := 0; i < nodes; i++ {
		ids = append(ids, g.AddNode())
	}
	ids = append(ids, flowgraph.Sink)
	for i := 0; i < edges; i++ {
		a := rng.Intn(len(ids) - 1)
		b := a + 1 + rng.Intn(len(ids)-a-1)
		g.AddEdge(ids[a], ids[b], int64(rng.Intn(20)), flowgraph.Label{})
	}
	return g
}

// randomNetwork builds a graph with none of randomDAG's structure: edges
// join any two nodes, so it has back edges, cycles, self-loops, edges into
// Source and out of Sink. It also holds an interior cycle that no other
// edge touches and an interior cycle hanging off a random node, and
// chains through fresh interior nodes so series contraction has work.
func randomNetwork(rng *rand.Rand, nodes, edges int) *flowgraph.Graph {
	g := flowgraph.New()
	ids := []flowgraph.NodeID{flowgraph.Source, flowgraph.Sink}
	for i := 0; i < nodes; i++ {
		ids = append(ids, g.AddNode())
	}
	pick := func() flowgraph.NodeID { return ids[rng.Intn(len(ids))] }
	capa := func() int64 { return int64(rng.Intn(20)) }
	cycle := func(at flowgraph.NodeID, n int) {
		prev := at
		for i := 0; i < n; i++ {
			v := g.AddNode()
			g.AddEdge(prev, v, capa(), flowgraph.Label{})
			prev = v
		}
		g.AddEdge(prev, at, capa(), flowgraph.Label{})
	}
	for i := 0; i < edges; i++ {
		if rng.Intn(4) == 0 { // a chain of fresh interior nodes
			prev, end := pick(), pick()
			for k := 1 + rng.Intn(4); k > 0; k-- {
				v := g.AddNode()
				g.AddEdge(prev, v, capa(), flowgraph.Label{})
				prev = v
			}
			g.AddEdge(prev, end, capa(), flowgraph.Label{})
			continue
		}
		g.AddEdge(pick(), pick(), capa(), flowgraph.Label{})
	}
	cycle(g.AddNode(), 1+rng.Intn(5)) // isolated: every node in=out=1
	cycle(pick(), 1+rng.Intn(5))
	return g
}

// randomGraph draws from randomDAG or randomNetwork.
func randomGraph(rng *rand.Rand, nodes, edges int) *flowgraph.Graph {
	if rng.Intn(2) == 0 {
		return randomDAG(rng, nodes, edges)
	}
	return randomNetwork(rng, nodes, edges)
}

func TestRandomNetworkShapes(t *testing.T) {
	var back, selfLoop, intoSource, outOfSink bool
	for seed := int64(0); seed < 20; seed++ {
		for _, e := range randomNetwork(rand.New(rand.NewSource(seed)), 20, 80).Edges {
			back = back || (e.From > e.To && e.To > flowgraph.Sink)
			selfLoop = selfLoop || e.From == e.To
			intoSource = intoSource || e.To == flowgraph.Source
			outOfSink = outOfSink || e.From == flowgraph.Sink
		}
	}
	if !back || !selfLoop || !intoSource || !outOfSink {
		t.Fatalf("generator misses a shape: back=%v self-loop=%v into-source=%v out-of-sink=%v",
			back, selfLoop, intoSource, outOfSink)
	}
}

// Edges that can carry no Source–Sink flow go, and so do the nodes they
// kept from contracting: an isolated interior cycle, an edge into Source
// and an edge out of Sink.
func TestUselessEdgesDropped(t *testing.T) {
	g := flowgraph.New()
	a, b, c, x, y := g.AddNode(), g.AddNode(), g.AddNode(), g.AddNode(), g.AddNode()
	g.AddEdge(flowgraph.Source, flowgraph.Sink, 4, flowgraph.Label{})
	g.AddEdge(a, b, 1, flowgraph.Label{})
	g.AddEdge(b, c, 1, flowgraph.Label{})
	g.AddEdge(c, a, 1, flowgraph.Label{})
	g.AddEdge(flowgraph.Source, x, 3, flowgraph.Label{})
	g.AddEdge(x, flowgraph.Sink, 2, flowgraph.Label{})
	g.AddEdge(x, flowgraph.Source, 9, flowgraph.Label{})
	g.AddEdge(flowgraph.Source, y, 1, flowgraph.Label{})
	g.AddEdge(y, flowgraph.Sink, 1, flowgraph.Label{})
	g.AddEdge(flowgraph.Sink, y, 9, flowgraph.Label{})
	red, _ := Reduce(g)
	if red.NumNodes() != 2 || red.NumEdges() != 1 || red.Edges[0].Cap != 7 {
		t.Fatalf("want one 7-cap s-t edge, got %d nodes, %+v", red.NumNodes(), red.Edges)
	}
}

// refFlow is an Edmonds–Karp maximum flow on g's plain edge list,
// independent of the CSR layout that Reduce and maxflow share.
func refFlow(g *flowgraph.Graph) int64 {
	type arc struct {
		to  int
		cap int64
	}
	var arcs []arc
	adj := make([][]int, g.NumNodes())
	for _, e := range g.Edges {
		adj[e.From] = append(adj[e.From], len(arcs))
		adj[e.To] = append(adj[e.To], len(arcs)+1)
		arcs = append(arcs, arc{int(e.To), e.Cap}, arc{int(e.From), 0})
	}
	var flow int64
	for {
		in := make([]int, g.NumNodes()) // arc that reached each node, -1 if none
		for i := range in {
			in[i] = -1
		}
		for queue := []int{0}; len(queue) > 0 && in[1] < 0; queue = queue[1:] {
			for _, a := range adj[queue[0]] {
				if v := arcs[a].to; v != 0 && in[v] < 0 && arcs[a].cap > 0 {
					in[v] = a
					queue = append(queue, v)
				}
			}
		}
		if in[1] < 0 {
			return flow
		}
		push := flowgraph.Inf
		for v := 1; v != 0; v = arcs[in[v]^1].to {
			push = min(push, arcs[in[v]].cap)
		}
		for v := 1; v != 0; v = arcs[in[v]^1].to {
			arcs[in[v]].cap -= push
			arcs[in[v]^1].cap += push
		}
		flow += push
	}
}

// Property: reduction preserves the Source-Sink maximum flow.
func TestReductionPreservesMaxFlow(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+rng.Intn(40), rng.Intn(160))
		want := refFlow(g)
		red, _ := Reduce(g)
		return refFlow(red) == want && maxflow.Compute(red).Flow == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 160}); err != nil {
		t.Error(err)
	}
}

// Property: reduction is a fixpoint (reducing twice changes nothing more).
func TestReductionIdempotent(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+rng.Intn(30), rng.Intn(100))
		r1, _ := Reduce(g)
		r2, st2 := Reduce(r1)
		return r2.NumNodes() == r1.NumNodes() && r2.NumEdges() == r1.NumEdges() &&
			st2.SeriesOps == 0 && st2.ParallelOps == 0 && st2.DeadNodes == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestStatsPopulated(t *testing.T) {
	g := randomDAG(rand.New(rand.NewSource(3)), 30, 100)
	_, st := Reduce(g)
	if st.OrigNodes != g.NumNodes() || st.OrigEdges != g.NumEdges() {
		t.Fatalf("orig stats wrong: %+v", st)
	}
	if st.ReducedEdges > st.OrigEdges {
		t.Fatalf("reduction grew the graph: %+v", st)
	}
}

func BenchmarkReduceRandom(b *testing.B) {
	g := randomDAG(rand.New(rand.NewSource(1)), 5000, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Reduce(g)
	}
}
