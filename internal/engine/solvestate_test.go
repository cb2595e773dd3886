package engine

import (
	"context"
	"reflect"
	"testing"

	"flowcheck/internal/fault"
	"flowcheck/internal/flowgraph"
	"flowcheck/internal/guest"
	"flowcheck/internal/maxflow"
	"flowcheck/internal/taint"
	"flowcheck/internal/workload"
)

// TestPooledSessionKeepsNoEdgeState pins that a warmed session keeps
// nothing whose size follows the graph. After exact runs the tracker's
// edge store is empty, because each run's graph took it over; after a
// battleship run that takes mid-run flow notes, neither the session nor
// its tracker can hold a layout or a solver, because no field of theirs
// has such a type. Each run lays out and solves its graph in its own CSR
// and solver, which the GC reclaims with the run.
func TestPooledSessionKeepsNoEdgeState(t *testing.T) {
	for _, exact := range []bool{false, true} {
		a := New(guest.Program("compress"), Config{Workers: 1, Taint: taint.Options{Exact: exact}})
		s := a.acquire()
		for _, n := range []int{1024, 512, 768} {
			if _, err := a.runStages(context.Background(), s, a.sessionTracker(s), Inputs{Secret: workload.PiWords(n)}, fault.Injection{}, nil); err != nil {
				t.Fatal(err)
			}
			if b := s.tracker.ArenaBytes(); b != 0 {
				t.Fatalf("exact=%v: after a %d B run the session's tracker keeps a %d B edge store; its graph should have taken it", exact, n, b)
			}
		}
		a.release(s)
	}

	secret, public, _ := guest.SampleInputs("battleship")
	a := New(guest.Program("battleship"), Config{Workers: 1, Taint: taint.Options{Exact: true}})
	s := a.acquire()
	defer a.release(s)
	res, err := a.runStages(context.Background(), s, a.sessionTracker(s), Inputs{Secret: secret, Public: public}, fault.Injection{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Snapshots) == 0 {
		t.Fatal("battleship took no flow notes")
	}
	if b := s.tracker.ArenaBytes(); b != 0 {
		t.Fatalf("after battleship the session's tracker keeps a %d B edge store", b)
	}
	for _, v := range []any{s, s.tracker} {
		if path := holdsSolveState(reflect.TypeOf(v), map[reflect.Type]bool{}); path != "" {
			t.Errorf("%T holds solve state at %s", v, path)
		}
	}
}

// holdsSolveState returns the field path by which a value of type t can
// reach a flowgraph.CSR or a maxflow.Solver, or "" if it cannot.
// Interfaces are opaque: what they hold is not the type's own state.
func holdsSolveState(t reflect.Type, seen map[reflect.Type]bool) string {
	if t == reflect.TypeOf(flowgraph.CSR{}) || t == reflect.TypeOf(maxflow.Solver{}) {
		return t.String()
	}
	if seen[t] {
		return ""
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return holdsSolveState(t.Elem(), seen)
	case reflect.Map:
		if p := holdsSolveState(t.Key(), seen); p != "" {
			return p
		}
		return holdsSolveState(t.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if p := holdsSolveState(t.Field(i).Type, seen); p != "" {
				return t.Name() + "." + t.Field(i).Name + " → " + p
			}
		}
	}
	return ""
}
