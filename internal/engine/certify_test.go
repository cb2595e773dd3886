package engine

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"flowcheck/internal/flowgraph"
	"flowcheck/internal/guest"
	"flowcheck/internal/maxflow"
	"flowcheck/internal/taint"
	"flowcheck/internal/workload"
)

// certifyAnswer holds an answer to the flow certificate. A result keeps
// no per-edge flow, so it lays g out again and solves it at view's
// capacities with a fresh solver, requires that solve's bits and cut
// edges to be the answer's, and certifies the answer's bits and cut with
// the fresh solver's EdgeFlow.
func certifyAnswer(g *flowgraph.Graph, view *flowgraph.CapacityView, res *Result) error {
	if res.Cut == nil {
		return fmt.Errorf("no exact flow behind %d bits (degraded: %v)", res.Bits, res.Degraded)
	}
	var c flowgraph.CSR
	g.BuildCSR(&c)
	s := maxflow.NewSolver()
	fresh, _ := s.Solve(&c, view, 0)
	if fresh.Flow != res.Bits || !slices.Equal(fresh.MinCut().EdgeIndex, res.Cut.EdgeIndex) {
		return fmt.Errorf("answer of %d bits and cut %v; a fresh solve finds %d bits and cut %v", res.Bits, res.Cut.EdgeIndex, fresh.Flow, fresh.MinCut().EdgeIndex)
	}
	return maxflow.Certify(g, view, res.Bits, s.EdgeFlow(&c), res.Cut)
}

// TestEveryAnswerCertified checks the flow certificate (maxflow.Certify)
// on every path that solves a graph: a single run, an AnalyzeBatch joint
// bound, and each class view of a class analysis, on every guest in both
// graph modes. (Tracker.FlowNote's mid-run solves are certified in
// package taint.)
func TestEveryAnswerCertified(t *testing.T) {
	certify := func(name string, g *flowgraph.Graph, view *flowgraph.CapacityView, res *Result) {
		t.Helper()
		if err := certifyAnswer(g, view, res); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for _, name := range guest.Names() {
		secret, public, _ := guest.SampleInputs(name)
		in := Inputs{Secret: secret, Public: public}
		for _, exact := range []bool{false, true} {
			label := fmt.Sprintf("%s exact=%v", name, exact)
			a := New(guest.Program(name), Config{Taint: taint.Options{Exact: exact}})

			res, err := a.Analyze(in)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			certify(label, res.Graph, nil, res)

			half := Inputs{Secret: secret[:len(secret)/2], Public: public}
			joint, err := a.AnalyzeBatch([]Inputs{in, half, in})
			if err != nil {
				t.Fatalf("%s batch: %v", label, err)
			}
			certify(label+" batch", joint.Graph, nil, joint)

			cg, err := a.buildClassGraph(context.Background(), in)
			if err != nil {
				t.Fatalf("%s classes: %v", label, err)
			}
			g, solver := cg.res.Graph, maxflow.NewSolver()
			certify(label+" classes joint", g, nil, cg.res)
			n := len(secret)
			for _, c := range []SecretClass{{"head", 0, n / 3}, {"tail", n / 3, n - n/3}} {
				view := cg.srcMap.ClassView(g, flowgraph.ByteRange{Off: c.Off, Len: c.Len})
				b := solveBound(solver, g, &cg.csr, view, 0, false)
				certify(fmt.Sprintf("%s class %s", label, c.Name), g, view, b)
				if cr := a.solveClass(solver, cg, c, a.cfg.Fault.Run(0)); cr.Bits != b.Bits {
					t.Fatalf("%s class %s: solveClass %d bits, certified solve %d", label, c.Name, cr.Bits, b.Bits)
				}
			}
		}
	}

	// An exact compress window: the layout the benchmark solves.
	in := Inputs{Secret: workload.PiWords(1024)}
	res, err := Analyze(guest.Program("compress"), in, Config{Taint: taint.Options{Exact: true}})
	if err != nil {
		t.Fatal(err)
	}
	certify("compress 1 KiB exact", res.Graph, nil, res)
}
