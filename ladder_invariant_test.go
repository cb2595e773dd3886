package flowcheck

// ladder_invariant_test.go pins the precision ladder's soundness ordering
// on the whole guest corpus, in both collapsed and exact graph modes:
//
//	measured ≤ static ≤ trivial        (per guest, per mode)
//	log2(behaviors) ≤ static ≤ trivial (bounded enumeration lower bound)
//
// The lower bound comes from internal/modelcount: run the uninstrumented
// guest over a bounded slice of its secret domain and count distinct
// observable behaviors. The static bound is input-independent, so it must
// dominate the behavior count no matter which secrets realize it. The
// single-run measured flow is NOT required to dominate the lower bound —
// one execution's bound says nothing about other executions (§3.2); that
// comparison belongs to the merged multi-run analysis, which the fuzz
// harness checks.

import (
	"math"
	"testing"

	"flowcheck/internal/engine"
	"flowcheck/internal/guest"
	"flowcheck/internal/modelcount"
	"flowcheck/internal/taint"
)

func TestLadderInvariantCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus ladder sweep skipped in -short mode")
	}
	modes := []struct {
		name string
		cfg  engine.Config
	}{
		{"collapsed", engine.Config{}},
		{"exact", engine.Config{Taint: taint.Options{Exact: true}}},
	}
	for _, name := range guest.Names() {
		secret, public, ok := guest.SampleInputs(name)
		if !ok {
			t.Fatalf("no sample inputs for %q", name)
		}
		prog := guest.Program(name)
		in := engine.Inputs{Secret: secret, Public: public}
		trivial := engine.TrivialBoundBits(len(secret))

		staticCfg := engine.Config{Precision: engine.PrecisionStatic}
		staticRes, err := engine.Analyze(prog, in, staticCfg)
		if err != nil {
			t.Fatalf("%s: static rung failed: %v", name, err)
		}
		if staticRes.Rung != engine.RungStatic || staticRes.Graph != nil || staticRes.Steps != 0 {
			t.Fatalf("%s: static rung executed: rung=%q steps=%d", name, staticRes.Rung, staticRes.Steps)
		}
		if staticRes.Bits > trivial {
			t.Errorf("%s: static %d > trivial %d", name, staticRes.Bits, trivial)
		}

		for _, mode := range modes {
			res, err := engine.Analyze(prog, in, mode.cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, mode.name, err)
			}
			if res.Trap != nil {
				t.Fatalf("%s/%s trapped: %v", name, mode.name, res.Trap)
			}
			if res.Bits > staticRes.Bits {
				t.Errorf("%s/%s: LADDER violated: measured %d > static %d",
					name, mode.name, res.Bits, staticRes.Bits)
			}
		}

		mc := modelcount.Enumerate(prog, modelcount.Options{
			SecretLen:  len(secret),
			Public:     public,
			MaxSecrets: 64,
		})
		if mc.LowerBits > float64(staticRes.Bits)+1e-9 {
			t.Errorf("%s: behavior lower bound %.2f bits exceeds the static bound %d",
				name, mc.LowerBits, staticRes.Bits)
		}
	}
}

// The adaptive mode never answers looser than the rung it settled on, and
// an escalated answer agrees with the plain full solve.
func TestLadderAdaptiveAgreesWithFull(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus ladder sweep skipped in -short mode")
	}
	for _, name := range guest.Names() {
		secret, public, ok := guest.SampleInputs(name)
		if !ok {
			t.Fatalf("no sample inputs for %q", name)
		}
		prog := guest.Program(name)
		in := engine.Inputs{Secret: secret, Public: public}

		// Threshold 0 forces escalation: the answer must be the full solve.
		esc, err := engine.Analyze(prog, in, engine.Config{Precision: engine.PrecisionAdaptive})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		full, err := engine.Analyze(prog, in, engine.Config{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if esc.Rung != engine.RungFull || esc.Bits != full.Bits {
			t.Errorf("%s: escalated adaptive rung=%q bits=%d, full solve %d",
				name, esc.Rung, esc.Bits, full.Bits)
		}

		// A generous threshold stops at a cheap rung whose bound honors it.
		cheap, err := engine.Analyze(prog, in,
			engine.Config{Precision: engine.PrecisionAdaptive, AdaptiveThreshold: math.MaxInt64})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cheap.Rung != engine.RungTrivial || cheap.Graph != nil {
			t.Errorf("%s: unlimited threshold escalated past the trivial rung (%q)", name, cheap.Rung)
		}
	}
}
