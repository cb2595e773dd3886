package flowcheck

// classes_equivalence_test.go is the corpus-wide soundness guard for the
// multi-commodity class analysis: for every guest, in both graph
// construction modes and at several worker counts, the shared path (one
// execution + per-class capacity views) must bound each class at least as
// high as the per-class oracle (one plain analysis per class, with the
// class's secret ranging set in taint.Options.SecretRanges).
// The shared graph is built from an all-marked run, so it is an edge
// superset of any single-class graph with at-least-merged endpoints;
// max flow is monotone in capacities, hence shared >= oracle per class is
// the invariant (exactness is not promised when rangings interact with
// the collapsed graph's label merging, but in practice the corpus agrees
// bit-for-bit — asserted when it holds structurally: a single class
// covering the whole secret must equal the plain analysis exactly).
//
// Run with -race: the shared path fans class solves out across workers
// over one immutable classGraph.

import (
	"fmt"
	"testing"

	"flowcheck/internal/engine"
	"flowcheck/internal/guest"
	"flowcheck/internal/stagecache"
	"flowcheck/internal/taint"
	"flowcheck/internal/vm"
)

// corpusClasses splits a secret into three contiguous classes (uneven on
// purpose: a short prefix, a middle, and the tail).
func corpusClasses(n int) []engine.SecretClass {
	a := n / 4
	b := n / 2
	return []engine.SecretClass{
		{Name: "prefix", Off: 0, Len: a},
		{Name: "middle", Off: a, Len: b - a},
		{Name: "tail", Off: b, Len: n - b},
	}
}

// classOracle is the per-class reference bound: one plain analysis per
// class whose secret ranging marks only that class's bytes, so every class
// costs a full execution of its own.
func classOracle(t *testing.T, prog *vm.Program, in engine.Inputs, classes []engine.SecretClass, base engine.Config) []int64 {
	t.Helper()
	bits := make([]int64, len(classes))
	for i, c := range classes {
		cfg := base
		cfg.Taint.SecretRanges = []taint.StreamRange{{Off: c.Off, Len: c.Len}}
		res, err := engine.Analyze(prog, in, cfg)
		if err != nil {
			t.Fatalf("per-class oracle %q: %v", c.Name, err)
		}
		bits[i] = res.Bits
	}
	return bits
}

// TestClassSoundnessCorpus checks shared-vs-oracle on every guest, both
// graph modes, serial and parallel class solving.
func TestClassSoundnessCorpus(t *testing.T) {
	for _, name := range guest.Names() {
		name := name
		for _, exact := range []bool{false, true} {
			exact := exact
			t.Run(fmt.Sprintf("%s/exact=%v", name, exact), func(t *testing.T) {
				if testing.Short() && exact && name == "compress" {
					t.Skip("exact-mode compress is slow")
				}
				t.Parallel()
				secret, public, ok := guest.SampleInputs(name)
				if !ok {
					t.Fatalf("no sample inputs for %q", name)
				}
				if len(secret) < 4 {
					t.Skipf("secret too short (%d bytes) to split into classes", len(secret))
				}
				prog := guest.Program(name)
				in := engine.Inputs{Secret: secret, Public: public}
				classes := corpusClasses(len(secret))
				base := engine.Config{Taint: taint.Options{Exact: exact}}

				oracle := classOracle(t, prog, in, classes, base)

				joint, err := engine.Analyze(prog, in, base)
				if err != nil {
					t.Fatalf("joint analyze: %v", err)
				}

				for _, workers := range []int{1, 3} {
					cfg := base
					cfg.Workers = workers
					shared, err := engine.AnalyzeClassSet(prog, in, classes, cfg)
					if err != nil {
						t.Fatalf("shared (workers=%d): %v", workers, err)
					}
					if shared.Executions != 1 {
						t.Errorf("workers=%d: shared path performed %d executions, want exactly 1", workers, shared.Executions)
					}
					for i, cr := range shared.Classes {
						if cr.Err != nil {
							t.Fatalf("class %q failed: %v", cr.Class.Name, cr.Err)
						}
						// The soundness invariant: a shared-view class bound
						// never undercuts the per-class oracle.
						if cr.Bits < oracle[i] {
							t.Errorf("workers=%d class %q: shared bound %d < per-class oracle %d (unsound)",
								workers, cr.Class.Name, cr.Bits, oracle[i])
						}
						// No class can reveal more than the joint execution.
						if cr.Bits > joint.Bits {
							t.Errorf("workers=%d class %q: class bound %d > joint bound %d",
								workers, cr.Class.Name, cr.Bits, joint.Bits)
						}
					}
					if shared.Joint == nil || shared.Joint.Bits != joint.Bits {
						t.Errorf("workers=%d: shared joint = %v, want %d bits", workers, shared.Joint, joint.Bits)
					}
				}
			})
		}
	}
}

// TestClassFullRangeMatchesPlainAnalysis pins the bit-for-bit case: one
// class covering the entire secret is the same flow problem as the plain
// analysis (every attributed source byte keeps its full capacity), so the
// bound and the cut value must agree exactly on every guest.
func TestClassFullRangeMatchesPlainAnalysis(t *testing.T) {
	for _, name := range guest.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			secret, public, ok := guest.SampleInputs(name)
			if !ok {
				t.Fatalf("no sample inputs for %q", name)
			}
			prog := guest.Program(name)
			in := engine.Inputs{Secret: secret, Public: public}
			all := []engine.SecretClass{{Name: "all", Off: 0, Len: len(secret)}}

			plain, err := engine.Analyze(prog, in, engine.Config{})
			if err != nil {
				t.Fatalf("plain: %v", err)
			}
			ca, err := engine.AnalyzeClassSet(prog, in, all, engine.Config{})
			if err != nil {
				t.Fatalf("class set: %v", err)
			}
			if cr := ca.Classes[0]; cr.Bits != plain.Bits {
				t.Errorf("full-range class = %d bits, plain analysis = %d bits", cr.Bits, plain.Bits)
			}
		})
	}
}

// TestClassSharedSingleExecution is the acceptance observable for the
// multi-commodity refactor: N classes cost exactly one guest execution
// (one pooled session created, per-class Execute/Build stages zero) and N
// solves; a second call with a different class set reuses the cached
// class graph and executes nothing.
func TestClassSharedSingleExecution(t *testing.T) {
	secret, public, ok := guest.SampleInputs("sshauth")
	if !ok {
		t.Fatal("no sample inputs for sshauth")
	}
	in := engine.Inputs{Secret: secret, Public: public}
	classes := []engine.SecretClass{
		{Name: "q0", Off: 0, Len: 16},
		{Name: "q1", Off: 16, Len: 16},
		{Name: "q2", Off: 32, Len: 16},
		{Name: "q3", Off: 48, Len: 16},
	}
	cache := stagecache.New(stagecache.Options{})
	a := engine.New(guest.Program("sshauth"), engine.Config{Workers: 4, Cache: cache})

	ca, err := a.AnalyzeClassSet(in, classes)
	if err != nil {
		t.Fatal(err)
	}
	if ca.Executions != 1 {
		t.Errorf("Executions = %d, want 1", ca.Executions)
	}
	if got := a.Pool().Created; got != 1 {
		t.Errorf("pool sessions created = %d, want 1 (one shared execution)", got)
	}
	if ca.Joint == nil || ca.Joint.Stages.Execute == 0 {
		t.Error("joint result should carry the shared execution's stage time")
	}
	for _, cr := range ca.Classes {
		if cr.Err != nil {
			t.Fatalf("class %q: %v", cr.Class.Name, cr.Err)
		}
		if cr.Stages.Execute != 0 || cr.Stages.Build != 0 {
			t.Errorf("class %q executed/built on its own (execute=%v build=%v); the shared path must only solve",
				cr.Class.Name, cr.Stages.Execute, cr.Stages.Build)
		}
		if cr.Stages.Solve == 0 {
			t.Errorf("class %q records no solve time", cr.Class.Name)
		}
	}

	// A different class set over the same inputs re-slices the cached
	// class graph: zero further executions, zero further sessions.
	ca2, err := a.AnalyzeClassSet(in, []engine.SecretClass{{Name: "half", Off: 0, Len: 32}})
	if err != nil {
		t.Fatal(err)
	}
	if ca2.Executions != 0 {
		t.Errorf("second class set: Executions = %d, want 0 (class graph cached)", ca2.Executions)
	}
	if got := a.Pool().Created; got != 1 {
		t.Errorf("second class set created a session (total %d), want the cached graph to serve it", got)
	}
}
