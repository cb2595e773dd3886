package flowcheck

// guests_flow_test.go pins the max-flow value of every guest program, in
// both construction modes, against the representative inputs of
// guest.SampleInputs. These are the bit-identical guards for refactors of
// the graph core: any change to flowgraph, taint, spqr, merge, or maxflow
// must reproduce every value exactly.

import (
	"testing"

	"flowcheck/internal/engine"
	"flowcheck/internal/guest"
	"flowcheck/internal/taint"
)

// guestFlows holds the pinned per-guest flow values. The collapsed column
// is the default §5.2 construction; the exact column is the §4.2 streaming
// construction (unique label per dynamic edge).
var guestFlows = []struct {
	name      string
	collapsed int64
	exact     int64
}{
	{"battleship", 6, 6},
	{"calendar", 18, 18},
	{"compress", 1656, 1656},
	{"count_punct", 9, 9},
	{"divzero", 1, 1},
	{"guessnum", 3, 3},
	{"imagefilter", 316, 316},
	{"interp", 4, 4},
	{"sshauth", 128, 128},
	{"unary", 6, 6},
	{"xserver", 16, 16},
}

func TestAllGuestFlowsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("exact-mode compress is slow")
	}
	for _, tc := range guestFlows {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			secret, public, ok := guest.SampleInputs(tc.name)
			if !ok {
				t.Fatalf("no sample inputs for %q", tc.name)
			}
			prog := guest.Program(tc.name)
			in := engine.Inputs{Secret: secret, Public: public}

			res, err := engine.Analyze(prog, in, engine.Config{})
			if err != nil {
				t.Fatalf("collapsed: %v", err)
			}
			if res.Bits != tc.collapsed {
				t.Errorf("collapsed bits = %d, want %d", res.Bits, tc.collapsed)
			}

			res, err = engine.Analyze(prog, in, engine.Config{Taint: taint.Options{Exact: true}})
			if err != nil {
				t.Fatalf("exact: %v", err)
			}
			if res.Bits != tc.exact {
				t.Errorf("exact bits = %d, want %d", res.Bits, tc.exact)
			}
		})
	}
}
