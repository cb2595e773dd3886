package taint

import (
	"slices"
	"testing"

	"flowcheck/internal/flowgraph"
	"flowcheck/internal/guest"
	"flowcheck/internal/maxflow"
	"flowcheck/internal/vm"
)

// certifyingNotes re-solves the graph at every flow note the way the
// tracker does, and checks the flow certificate and the snapshot FlowNote
// just recorded. The tracker's answer keeps no per-edge flow, so the
// certificate reads it from a fresh solve of the graph that must find the
// same bits and cut.
type certifyingNotes struct {
	*Tracker
	t     *testing.T
	notes int
}

func (c *certifyingNotes) FlowNote(site uint32) {
	c.Tracker.FlowNote(site)
	g, res := c.solveSoFar()
	var csr flowgraph.CSR
	g.BuildCSR(&csr)
	s := maxflow.NewSolver()
	fresh, _ := s.Solve(&csr, nil, 0)
	if fresh.Flow != res.Flow || !slices.Equal(fresh.MinCut().EdgeIndex, res.MinCut().EdgeIndex) {
		c.t.Fatalf("note %d: %d bits, a fresh solve %d", c.notes, res.Flow, fresh.Flow)
	}
	if err := maxflow.Certify(g, nil, res.Flow, s.EdgeFlow(&csr), res.MinCut()); err != nil {
		c.t.Fatalf("note %d: %v", c.notes, err)
	}
	if got := c.snapshots[len(c.snapshots)-1].Bits; got != res.Flow {
		c.t.Fatalf("note %d: snapshot %d bits, certified flow %d", c.notes, got, res.Flow)
	}
	c.notes++
}

// TestFlowNoteCertified: every mid-run measurement of battleship's live
// mode, in both graph modes, is a certified maximum flow.
func TestFlowNoteCertified(t *testing.T) {
	secret, public, _ := guest.SampleInputs("battleship")
	for _, exact := range []bool{false, true} {
		tr := New(Options{Exact: exact})
		m := vm.NewMachine(guest.Program("battleship"))
		m.SecretIn, m.PublicIn = secret, public
		tr.Attach(m)
		c := &certifyingNotes{Tracker: tr, t: t}
		m.Tracer = c
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if c.notes == 0 {
			t.Fatalf("exact=%v: battleship took no flow notes", exact)
		}
	}
}
