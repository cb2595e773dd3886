package spqr_test

// guests_test.go pins how far Reduce gets on every guest's real flow
// graph: the graph of guest.SampleInputs, built in both construction
// modes. Any change to the reducer must reproduce every size exactly and
// keep every maximum flow.

import (
	"testing"

	"flowcheck/internal/engine"
	"flowcheck/internal/guest"
	"flowcheck/internal/maxflow"
	"flowcheck/internal/spqr"
	"flowcheck/internal/taint"
)

// reducedSizes holds ReducedNodes, ReducedEdges in collapsed mode, then
// ReducedNodes, ReducedEdges in exact mode, per guest.
var reducedSizes = map[string][4]int{
	"battleship":  {19, 31, 433, 869},
	"calendar":    {11, 18, 46, 108},
	"compress":    {14, 24, 6493, 14295},
	"count_punct": {9, 12, 24, 42},
	"divzero":     {2, 1, 2, 1},
	"guessnum":    {5, 6, 5, 6},
	"imagefilter": {15, 21, 702, 1951},
	"interp":      {2, 1, 2, 1},
	"sshauth":     {97, 217, 2478, 4818},
	"unary":       {4, 4, 13, 22},
	"xserver":     {10, 16, 9, 15},
}

func TestReduceGuestGraphsPinned(t *testing.T) {
	for _, name := range guest.Names() {
		secret, public, ok := guest.SampleInputs(name)
		if !ok {
			t.Fatalf("guest %s has no sample inputs", name)
		}
		var got [4]int
		for i, exact := range []bool{false, true} {
			res, err := engine.Analyze(guest.Program(name), engine.Inputs{Secret: secret, Public: public},
				engine.Config{Taint: taint.Options{Exact: exact}})
			if err != nil {
				t.Fatalf("%s exact=%v: %v", name, exact, err)
			}
			red, st := spqr.Reduce(res.Graph)
			if st.ReducedNodes != red.NumNodes() || st.ReducedEdges != red.NumEdges() {
				t.Errorf("%s exact=%v: stats %d/%d disagree with the graph %d/%d",
					name, exact, st.ReducedNodes, st.ReducedEdges, red.NumNodes(), red.NumEdges())
			}
			if f := maxflow.Compute(red).Flow; f != res.Bits {
				t.Errorf("%s exact=%v: reduced flow %d, want %d", name, exact, f, res.Bits)
			}
			got[2*i], got[2*i+1] = st.ReducedNodes, st.ReducedEdges
		}
		if want, ok := reducedSizes[name]; !ok {
			t.Errorf("%s: no pinned sizes", name)
		} else if got != want {
			t.Errorf("%s: reduced nodes/edges (collapsed, exact) = %v, want %v", name, got, want)
		}
	}
}
