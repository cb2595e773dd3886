package taint

import (
	"testing"

	"flowcheck/internal/guest"
	"flowcheck/internal/maxflow"
	"flowcheck/internal/vm"
)

// certifyingNotes re-solves the graph at every flow note through the
// tracker's own reusable CSR and solver, and checks the flow certificate
// and the snapshot FlowNote just recorded.
type certifyingNotes struct {
	*Tracker
	t     *testing.T
	notes int
}

func (c *certifyingNotes) FlowNote(site uint32) {
	c.Tracker.FlowNote(site)
	g, res := c.solveSoFar()
	if err := maxflow.Certify(g, nil, res); err != nil {
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
