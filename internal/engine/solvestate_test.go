package engine

import (
	"context"
	"testing"

	"flowcheck/internal/fault"
	"flowcheck/internal/guest"
	"flowcheck/internal/taint"
	"flowcheck/internal/workload"
)

// TestPooledSolveStatePerEdge pins what a warmed exact session keeps
// pooled per graph edge: the CSR and the solver's slices, by capacity,
// and the tracker's arena store, which must be empty because the run's
// graph took it over. The reduced layout holds no per-edge column — one
// id per node, a few words per chain and per arc of a network about a
// fifth the graph's size — where the per-edge layout it replaced held
// ≈57 B/edge; a kept arena store would add 32 B/edge.
func TestPooledSolveStatePerEdge(t *testing.T) {
	a := New(guest.Program("compress"), Config{Workers: 1, Taint: taint.Options{Exact: true}})
	s := a.acquire()
	defer a.release(s)
	in := Inputs{Secret: workload.PiWords(1024)}
	var res *Result
	for i := 0; i < 2; i++ {
		var err error
		if res, err = a.runStages(context.Background(), s, a.sessionTracker(s), in, fault.Injection{}); err != nil {
			t.Fatal(err)
		}
	}
	edges := res.Graph.NumEdges()
	arena := s.tracker.ArenaBytes()
	if arena != 0 {
		t.Fatalf("the session's tracker keeps a %d B edge store after the run; its graph should have taken it", arena)
	}
	perEdge := float64(s.csr.Bytes()+s.solver.Bytes()+arena) / float64(edges)
	t.Logf("exact compress, %d edges, %d arcs: pooled state %.1f B/edge", edges, s.csr.NumArcs(), perEdge)
	// Measures 16.5; one more int32 per edge would read 20.5.
	const ceiling = 20
	if perEdge > ceiling {
		t.Fatalf("pooled solve state is %.1f B per edge, ceiling %d — a per-edge column came back or the reduction stopped reducing", perEdge, ceiling)
	}
}
