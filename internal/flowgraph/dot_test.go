package flowgraph

import (
	"strings"
	"testing"
)

// TestWriteDOTDeterministic pins the exact DOT output for a small graph
// built in scrambled order: WriteDOT sorts edges, so permuting insertion
// order must not change the bytes.
func TestWriteDOTDeterministic(t *testing.T) {
	build := func(perm []int) *Graph {
		g := New()
		v := g.AddNode()
		w := g.AddNode()
		edges := []Edge{
			{From: Source, To: v, Cap: 8, Label: Label{Site: 1, Kind: KindInput}},
			{From: v, To: w, Cap: Inf, Label: Label{Site: 2, Kind: KindChain}},
			{From: v, To: Sink, Cap: 3, Label: Label{Site: 3, Kind: KindOutput}},
			{From: w, To: Sink, Cap: 0, Label: Label{Site: 4, Kind: KindOutput}}, // omitted: zero cap
		}
		for _, i := range perm {
			e := edges[i]
			g.AddEdge(e.From, e.To, e.Cap, e.Label)
		}
		return g
	}

	const want = `digraph "flow" {
  rankdir=LR;
  n0 [label="source",shape=doublecircle];
  n1 [label="sink",shape=doublecircle];
  n0 -> n2 [label="input:8"];
  n2 -> n1 [label="output:3"];
  n2 -> n3 [label="chain:inf"];
}
`
	for _, perm := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}} {
		var sb strings.Builder
		if err := build(perm).WriteDOT(&sb, ""); err != nil {
			t.Fatal(err)
		}
		if sb.String() != want {
			t.Fatalf("perm %v:\ngot:\n%s\nwant:\n%s", perm, sb.String(), want)
		}
	}
}

// TestWriteDOTTieBreak pins the order of edges that agree up to Aux: a
// collapsed graph orders them by context word, an exact graph by
// position, whatever their kinds and capacities.
func TestWriteDOTTieBreak(t *testing.T) {
	g := New()
	v := g.AddNode()
	g.AddEdge(Source, v, 2, Label{Site: 1, Kind: KindImplicit})
	g.AddEdge(Source, v, 1, Label{Site: 1, Kind: KindData})
	for _, c := range []struct {
		exact bool
		ctx   []uint64
		want  string
	}{
		{false, []uint64{3, 5}, "implicit:2 data:1"},
		{false, nil, "data:1 implicit:2"}, // equal contexts: kind decides
		{true, nil, "implicit:2 data:1"},
	} {
		g.Exact, g.Ctx = c.exact, c.ctx
		var sb strings.Builder
		if err := g.WriteDOT(&sb, ""); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, line := range strings.Split(sb.String(), "\n") {
			if _, l, ok := strings.Cut(line, `label="`); ok && strings.Contains(line, "->") {
				got = append(got, strings.TrimSuffix(l, `"];`))
			}
		}
		if strings.Join(got, " ") != c.want {
			t.Errorf("exact %v, ctx %v: edge order %v, want %s", c.exact, c.ctx, got, c.want)
		}
	}
}
