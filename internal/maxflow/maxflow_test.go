package maxflow

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flowcheck/internal/flowgraph"
)

func line(caps ...int64) *flowgraph.Graph {
	g := flowgraph.New()
	prev := flowgraph.Source
	for i, c := range caps {
		var next flowgraph.NodeID
		if i == len(caps)-1 {
			next = flowgraph.Sink
		} else {
			next = g.AddNode()
		}
		g.AddEdge(prev, next, c, flowgraph.Label{})
		prev = next
	}
	return g
}

func TestEmptyGraph(t *testing.T) {
	g := flowgraph.New()
	if r := Compute(g); r.Flow != 0 {
		t.Errorf("flow on empty graph = %d", r.Flow)
	}
}

func TestSeriesBottleneck(t *testing.T) {
	g := line(10, 3, 7)
	if r := Compute(g); r.Flow != 3 {
		t.Errorf("series flow = %d, want 3", r.Flow)
	}
}

func TestParallelSum(t *testing.T) {
	g := flowgraph.New()
	g.AddEdge(flowgraph.Source, flowgraph.Sink, 4, flowgraph.Label{})
	g.AddEdge(flowgraph.Source, flowgraph.Sink, 5, flowgraph.Label{})
	if r := Compute(g); r.Flow != 9 {
		t.Fatalf("parallel flow = %d, want 9", r.Flow)
	}
}

// The classic example where a greedy path choice requires a residual
// (backward) edge to reach the optimum.
func TestResidualReroute(t *testing.T) {
	g := flowgraph.New()
	a, b := g.AddNode(), g.AddNode()
	g.AddEdge(flowgraph.Source, a, 1, flowgraph.Label{})
	g.AddEdge(flowgraph.Source, b, 1, flowgraph.Label{})
	g.AddEdge(a, b, 1, flowgraph.Label{})
	g.AddEdge(a, flowgraph.Sink, 1, flowgraph.Label{})
	g.AddEdge(b, flowgraph.Sink, 1, flowgraph.Label{})
	if r := Compute(g); r.Flow != 2 {
		t.Errorf("flow = %d, want 2", r.Flow)
	}
}

// Figure 1 of the paper: c = d = a + b. Without the node-splitting internal
// edge, 64 bits could flow; with it, only 32.
func TestFigure1NodeSplitting(t *testing.T) {
	// Left graph (no constraint): the + node has two independent 32-bit
	// outputs.
	left := flowgraph.New()
	plus := left.AddNode()
	left.AddEdge(flowgraph.Source, plus, 32, flowgraph.Label{}) // a
	left.AddEdge(flowgraph.Source, plus, 32, flowgraph.Label{}) // b
	left.AddEdge(plus, flowgraph.Sink, 32, flowgraph.Label{})   // c
	left.AddEdge(plus, flowgraph.Sink, 32, flowgraph.Label{})   // d
	if r := Compute(left); r.Flow != 64 {
		t.Fatalf("left graph flow = %d, want 64", r.Flow)
	}
	// Right graph: node splitting enforces the 32-bit single output.
	right := flowgraph.New()
	in, out := right.AddNode(), right.AddNode()
	right.AddEdge(in, out, 32, flowgraph.Label{Kind: flowgraph.KindInternal})
	right.AddEdge(flowgraph.Source, in, 32, flowgraph.Label{})
	right.AddEdge(flowgraph.Source, in, 32, flowgraph.Label{})
	right.AddEdge(out, flowgraph.Sink, 32, flowgraph.Label{})
	right.AddEdge(out, flowgraph.Sink, 32, flowgraph.Label{})
	if r := Compute(right); r.Flow != 32 {
		t.Fatalf("right graph flow = %d, want 32", r.Flow)
	}
}

func TestDisconnected(t *testing.T) {
	g := flowgraph.New()
	a := g.AddNode()
	g.AddEdge(flowgraph.Source, a, 100, flowgraph.Label{})
	if r := Compute(g); r.Flow != 0 {
		t.Fatalf("disconnected flow = %d, want 0", r.Flow)
	}
}

func TestInfEdges(t *testing.T) {
	g := line(flowgraph.Inf, 5, flowgraph.Inf)
	if r := Compute(g); r.Flow != 5 {
		t.Fatalf("flow through Inf chain = %d, want 5", r.Flow)
	}
}

// certified solves g on its reduced layout and certifies the answer with
// the solver's per-edge flow.
func certified(g *flowgraph.Graph) error {
	c, s := csrOf(g), NewSolver()
	r, _ := s.Solve(c, nil, 0)
	return Certify(g, nil, r.Flow, s.EdgeFlow(c), r.MinCut())
}

func TestEdgeFlowConservation(t *testing.T) {
	g := randomDAG(rand.New(rand.NewSource(7)), 20, 60)
	if err := certified(g); err != nil {
		t.Fatal(err)
	}
}

func randomDAG(rng *rand.Rand, nodes, edges int) *flowgraph.Graph {
	g := flowgraph.New()
	ids := []flowgraph.NodeID{flowgraph.Source}
	for i := 0; i < nodes; i++ {
		ids = append(ids, g.AddNode())
	}
	ids = append(ids, flowgraph.Sink)
	// Edges only go from lower to higher rank: acyclic with Source first,
	// Sink last.
	for i := 0; i < edges; i++ {
		a := rng.Intn(len(ids) - 1)
		b := a + 1 + rng.Intn(len(ids)-a-1)
		g.AddEdge(ids[a], ids[b], int64(rng.Intn(20)), flowgraph.Label{})
	}
	return g
}

// Property: every answer on random DAGs is a certified maximum flow:
// conservation, capacities, and a saturated cut of equal capacity.
func TestDinicCertified(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 2+rng.Intn(30), rng.Intn(120))
		return certified(g) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: max-flow equals min-cut capacity, and the cut disconnects.
func TestMaxFlowMinCut(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 2+rng.Intn(30), rng.Intn(120))
		r := Compute(g)
		cut := r.MinCut()
		if cut.Capacity != r.Flow {
			return false
		}
		// Removing cut edges must disconnect Source from Sink.
		removed := make(map[int]bool, len(cut.EdgeIndex))
		for _, i := range cut.EdgeIndex {
			removed[i] = true
		}
		adj := make(map[flowgraph.NodeID][]flowgraph.NodeID)
		for i, e := range g.Edges {
			if !removed[i] && e.Cap > 0 {
				adj[e.From] = append(adj[e.From], e.To)
			}
		}
		seen := map[flowgraph.NodeID]bool{flowgraph.Source: true}
		stack := []flowgraph.NodeID{flowgraph.Source}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range adj[v] {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		return !seen[flowgraph.Sink]
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMinCutOnSeries(t *testing.T) {
	g := line(10, 3, 7)
	r := Compute(g)
	cut := r.MinCut()
	if len(cut.EdgeIndex) != 1 || g.Edges[cut.EdgeIndex[0]].Cap != 3 {
		t.Fatalf("min cut should be the 3-capacity edge: %+v", cut)
	}
	if err := certified(g); err != nil {
		t.Fatal(err)
	}
	edges := cut.Edges(g)
	if len(edges) != 1 || edges[0].Cap != 3 {
		t.Fatalf("Edges() mismatch: %+v", edges)
	}
}

func TestLargeChain(t *testing.T) {
	// A deep series chain exercises the DFS on long paths.
	caps := make([]int64, 5000)
	for i := range caps {
		caps[i] = 100
	}
	caps[2500] = 17
	if r := Compute(line(caps...)); r.Flow != 17 {
		t.Fatalf("deep chain flow = %d, want 17", r.Flow)
	}
}

func BenchmarkDinicRandom(b *testing.B) {
	g := randomDAG(rand.New(rand.NewSource(1)), 2000, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(g.Clone())
	}
}
