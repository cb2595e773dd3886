package maxflow

import (
	"math/rand"
	"testing"

	"flowcheck/internal/flowgraph"
)

// budgetGraph builds a layered random graph big enough that a tiny work
// budget cannot finish it.
func budgetGraph(seed int64) *flowgraph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := flowgraph.New()
	const layers, width = 6, 20
	prev := []flowgraph.NodeID{flowgraph.Source}
	for l := 0; l < layers; l++ {
		var cur []flowgraph.NodeID
		for i := 0; i < width; i++ {
			cur = append(cur, g.AddNode())
		}
		for _, p := range prev {
			for _, c := range cur {
				if rng.Intn(3) != 0 {
					g.AddEdge(p, c, int64(1+rng.Intn(16)), flowgraph.Label{})
				}
			}
		}
		prev = cur
	}
	for _, p := range prev {
		g.AddEdge(p, flowgraph.Sink, int64(1+rng.Intn(16)), flowgraph.Label{})
	}
	return g
}

// csrOf builds the CSR view Solve consumes.
func csrOf(g *flowgraph.Graph) *flowgraph.CSR {
	var c flowgraph.CSR
	g.BuildCSR(&c)
	return &c
}

func TestSolveBudgetedExhaustsAndUnderestimates(t *testing.T) {
	g := budgetGraph(1)
	exact := Compute(g).Flow

	c, s := csrOf(g), NewSolver()
	partial, exhausted := s.Solve(c, nil, 10)
	if !exhausted {
		t.Fatalf("budget 10 on %d-edge graph not exhausted", g.NumEdges())
	}
	if partial.Flow > exact {
		t.Fatalf("partial flow %d exceeds exact max flow %d", partial.Flow, exact)
	}
	if Certify(g, nil, partial.Flow, s.EdgeFlow(c), partial.MinCut()) == nil {
		t.Fatal("a partial flow passed the certificate")
	}

	full, exhausted := NewSolver().Solve(csrOf(g), nil, 1<<40)
	if exhausted {
		t.Fatal("huge budget reported exhausted")
	}
	if full.Flow != exact {
		t.Fatalf("budgeted flow %d != exact %d", full.Flow, exact)
	}
}

func TestSolveBudgetedDeterministic(t *testing.T) {
	g := budgetGraph(7)
	a, ea := NewSolver().Solve(csrOf(g), nil, 500)
	b, eb := NewSolver().Solve(csrOf(g), nil, 500)
	if a.Flow != b.Flow || ea != eb {
		t.Fatalf("budgeted solve not deterministic: %d/%v vs %d/%v",
			a.Flow, ea, b.Flow, eb)
	}
}

func TestBudgetStateResetsBetweenSolves(t *testing.T) {
	g := budgetGraph(3)
	c := csrOf(g)
	s := NewSolver()
	if _, exhausted := s.Solve(c, nil, 5); !exhausted {
		t.Fatal("tiny budget not exhausted")
	}
	// The same solver with no budget must now solve exactly.
	res, _ := s.Solve(c, nil, 0)
	if want := Compute(g).Flow; res.Flow != want {
		t.Fatalf("solver after exhaustion: flow %d, want %d", res.Flow, want)
	}
}

// A capacity view does not bypass the work budget: a view solve under a
// tiny budget still stops early and underestimates the view's max flow.
func TestSolveViewHonoursBudget(t *testing.T) {
	g := budgetGraph(5)
	c := csrOf(g)
	// Halve every Source edge's capacity through the view.
	view := &flowgraph.CapacityView{}
	for i, e := range g.Edges {
		if e.From == flowgraph.Source {
			view.Edge = append(view.Edge, int32(i))
			view.Cap = append(view.Cap, e.Cap/2)
		}
	}
	exact, exhausted := NewSolver().Solve(c, view, 0)
	if exhausted {
		t.Fatal("unbudgeted view solve reported exhausted")
	}
	partial, exhausted := NewSolver().Solve(c, view, 10)
	if !exhausted {
		t.Fatal("budget 10 on a view solve not exhausted")
	}
	if partial.Flow > exact.Flow {
		t.Fatalf("partial view flow %d exceeds exact %d", partial.Flow, exact.Flow)
	}
}

// The budget covers the whole solve: the layout is charged one unit per
// graph edge before Dinic examines any arc, so a budget no larger
// than the edge count exhausts even a graph the reduction collapses to a
// single arc.
func TestBudgetChargesLayout(t *testing.T) {
	g := line(5, 3, 7, 4)
	c := csrOf(g)
	if c.NumArcs() != 1 {
		t.Fatalf("a series line lays out as %d arcs, want 1", c.NumArcs())
	}
	if _, exhausted := NewSolver().Solve(c, nil, int64(g.NumEdges())); !exhausted {
		t.Fatal("a budget of one unit per edge left work for the solve")
	}
	res, exhausted := NewSolver().Solve(c, nil, int64(g.NumEdges())+16)
	if exhausted || res.Flow != 3 {
		t.Fatalf("edges+16 units: flow %d, exhausted %v; want 3, false", res.Flow, exhausted)
	}
}
