package flowgraph

import (
	"strings"
	"testing"
)

func TestNewHasSourceAndSink(t *testing.T) {
	g := New()
	if g.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d, want 2", g.NumNodes())
	}
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d, want 0", g.NumEdges())
	}
}

func TestAddNodeAndEdge(t *testing.T) {
	g := New()
	a := g.AddNode()
	b := g.AddNode()
	if a == Source || a == Sink || b == a {
		t.Fatalf("bad node ids: %d %d", a, b)
	}
	idx := g.AddEdge(a, b, 8, Label{Site: 3, Kind: KindData})
	if idx != 0 || g.NumEdges() != 1 {
		t.Fatalf("AddEdge idx=%d edges=%d", idx, g.NumEdges())
	}
	e := g.Edges[0]
	if e.From != a || e.To != b || e.Cap != 8 || e.Label.Site != 3 {
		t.Fatalf("edge mismatch: %+v", e)
	}
}

func TestEdgePanicsOnBadEndpoint(t *testing.T) {
	g := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range endpoint")
		}
	}()
	g.AddEdge(Source, NodeID(99), 1, Label{})
}

func TestValidate(t *testing.T) {
	g := New()
	a := g.AddNode()
	g.AddEdge(Source, a, 4, Label{})
	g.AddEdge(a, Sink, 4, Label{})
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	g.Edges = append(g.Edges, Edge{From: Sink, To: a, Cap: 1})
	if err := g.Validate(); err == nil {
		t.Fatal("edge leaving sink not rejected")
	}
}

func TestTotalSinkCapacity(t *testing.T) {
	g := New()
	a := g.AddNode()
	g.AddEdge(Source, a, 10, Label{})
	g.AddEdge(a, Sink, 3, Label{Kind: KindOutput})
	g.AddEdge(a, Sink, 4, Label{Kind: KindOutput})
	if got := g.TotalSinkCapacity(); got != 7 {
		t.Fatalf("TotalSinkCapacity = %d, want 7", got)
	}
}

func TestStats(t *testing.T) {
	g := New()
	a := g.AddNode()
	g.AddEdge(Source, a, 8, Label{Kind: KindInput})
	g.AddEdge(a, Sink, 8, Label{Kind: KindOutput})
	g.AddEdge(a, Sink, 1, Label{Kind: KindImplicit})
	s := g.Stats()
	if s.Nodes != 3 || s.Edges != 3 || s.ImplicitEdges != 1 || s.SinkCapacity != 9 {
		t.Fatalf("stats mismatch: %+v", s)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := New()
	a := g.AddNode()
	g.AddEdge(Source, a, 5, Label{})
	g.Ctx = []uint64{7}
	c := g.Clone()
	c.Edges[0].Cap = 99
	c.Ctx[0] = 9
	if g.Edges[0].Cap != 5 || g.Ctx[0] != 7 {
		t.Fatal("Clone shares edge storage or context column")
	}
	g.Ctx, g.Exact = nil, true
	if c := g.Clone(); !c.Exact || c.Ctx != nil {
		t.Fatalf("clone of an exact graph: Exact %v, context column %v", c.Exact, c.Ctx)
	}
}

func TestWriteDOT(t *testing.T) {
	g := New()
	a := g.AddNode()
	g.AddEdge(Source, a, 8, Label{Kind: KindInput})
	g.AddEdge(a, Sink, Inf, Label{Kind: KindChain})
	g.AddEdge(a, Sink, 0, Label{Kind: KindData}) // omitted
	var sb strings.Builder
	if err := g.WriteDOT(&sb, "t"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "digraph") || !strings.Contains(out, "input:8") {
		t.Fatalf("DOT missing content:\n%s", out)
	}
	if !strings.Contains(out, "chain:inf") {
		t.Fatalf("Inf capacity should render as inf:\n%s", out)
	}
	if strings.Count(out, "->") != 2 {
		t.Fatalf("zero-capacity edge should be omitted:\n%s", out)
	}
}

func TestDegrees(t *testing.T) {
	g := New()
	a := g.AddNode()
	b := g.AddNode()
	g.AddEdge(Source, a, 1, Label{})
	g.AddEdge(Source, b, 1, Label{})
	g.AddEdge(a, b, 1, Label{})
	g.AddEdge(b, Sink, 1, Label{})
	out, in := g.OutDegree(), g.InDegree()
	if out[Source] != 2 || in[b] != 2 || out[b] != 1 || in[Sink] != 1 {
		t.Fatalf("degree mismatch: out=%v in=%v", out, in)
	}
}

func TestEdgeKindString(t *testing.T) {
	if KindImplicit.String() != "implicit" || KindChain.String() != "chain" {
		t.Fatal("EdgeKind names wrong")
	}
}

// OutDegree returns a slice mapping each node to its out-degree.
func (g *Graph) OutDegree() []int32 {
	deg := make([]int32, g.numNodes)
	for _, e := range g.Edges {
		deg[e.From]++
	}
	return deg
}

// InDegree returns a slice mapping each node to its in-degree.
func (g *Graph) InDegree() []int32 {
	deg := make([]int32, g.numNodes)
	for _, e := range g.Edges {
		deg[e.To]++
	}
	return deg
}

// TotalSinkCapacity returns the sum of capacities of edges entering Sink —
// the bound a plain tainting analysis would report (paper §7).
func (g *Graph) TotalSinkCapacity() int64 {
	var total int64
	for _, e := range g.Edges {
		if e.To == Sink {
			total += e.Cap
		}
	}
	return total
}
