package engine

import (
	"fmt"
	"math"
	"time"
)

// The precision ladder generalizes the degraded path: instead of one
// all-or-nothing dynamic solve, an analysis can answer at any of three
// rungs, each a sound upper bound on the leakage, each cheaper and
// looser than the one above it:
//
//	trivial  8·len(secret) — the whole secret, no program knowledge
//	static   the capacity abstract interpretation of internal/static:
//	         stream-read sites × static visit counts, whole-secret
//	         fallback on anything unresolved; no execution
//	full     execute, build the flow network, solve max flow
//
// The two cheap rungs never execute the guest and never draw a session;
// the static rung reads the process-global static cache, so a warm
// request is a pure lookup. Adaptive mode runs the cheapest rung first
// and escalates only while the bound it produced still exceeds the
// caller's threshold — "is this program safe enough?" usually needs no
// execution at all.

// Precision selects a rung of the precision ladder.
type Precision int

const (
	// PrecisionFull (the zero value) runs the dynamic pipeline: execute,
	// build, solve. Tightest bound, full cost.
	PrecisionFull Precision = iota
	// PrecisionTrivial answers 8·len(secret) with no execution.
	PrecisionTrivial
	// PrecisionStatic answers the static capacity bound with no
	// execution; the analysis is shared process-wide via the global
	// static cache.
	PrecisionStatic
	// PrecisionAdaptive tries trivial, then static, and escalates to the
	// full solve only while the cheaper bound exceeds
	// Config.AdaptiveThreshold bits.
	PrecisionAdaptive
)

func (p Precision) String() string {
	switch p {
	case PrecisionFull:
		return "full"
	case PrecisionTrivial:
		return "trivial"
	case PrecisionStatic:
		return "static"
	case PrecisionAdaptive:
		return "adaptive"
	}
	return fmt.Sprintf("precision(%d)", int(p))
}

// ParsePrecision maps the wire/flag names onto Precision values. The
// empty string is PrecisionFull, matching the zero-value default.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "full":
		return PrecisionFull, nil
	case "trivial":
		return PrecisionTrivial, nil
	case "static":
		return PrecisionStatic, nil
	case "adaptive":
		return PrecisionAdaptive, nil
	}
	return 0, fmt.Errorf("engine: unknown precision %q (want trivial, static, full, or adaptive)", s)
}

// Rung names recorded on Result.Rung / RunSummary.Rung.
const (
	RungTrivial = "trivial"
	RungStatic  = "static"
	RungFull    = "full"
)

// TrivialBoundBits is the bottom rung: the whole secret.
func TrivialBoundBits(secretLen int) int64 { return 8 * int64(secretLen) }

// StaticBoundBits is the static rung's bound for a secretLen-byte secret:
// min(static stream capacity, 8·secretLen). Never looser than the trivial
// rung, so pre-run accounting (internal/ledger) can charge it in place of
// the blunt whole-secret estimate. Computed once per program process-wide.
func (a *Analyzer) StaticBoundBits(secretLen int) int64 {
	sa, _, _ := a.staticAnalysis()
	return sa.Bound.Bits(secretLen)
}

// satBits is saturating addition for summed per-run bounds.
func satBits(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// ladderMulti answers N runs at a cheap rung, or reports handled=false
// when the configuration demands the full solve (PrecisionFull, a
// Precision out of range, or adaptive with the cheap bounds above
// threshold). N runs leak at most the sum of the per-run bounds, so the
// joint bound composes by saturating addition. Adaptive mode compares
// that sum against the threshold — the whole batch escalates together
// or not at all, keeping the result's provenance uniform.
func (a *Analyzer) ladderMulti(inputs []Inputs) (*Result, bool) {
	switch a.cfg.Precision {
	case PrecisionTrivial, PrecisionStatic, PrecisionAdaptive:
	default:
		return nil, false
	}
	if len(inputs) == 0 {
		return nil, false
	}
	t0 := time.Now()
	per := make([]int64, len(inputs))
	var sum int64
	for i, in := range inputs {
		per[i] = TrivialBoundBits(len(in.Secret))
		sum = satBits(sum, per[i])
	}
	rung := RungTrivial
	var staticDur time.Duration
	staticHit := false
	needStatic := a.cfg.Precision == PrecisionStatic ||
		(a.cfg.Precision == PrecisionAdaptive && sum > a.cfg.AdaptiveThreshold)
	if needStatic {
		sa, d, hit := a.staticAnalysis()
		staticDur, staticHit = d, hit
		sum = 0
		for i, in := range inputs {
			per[i] = sa.Bound.Bits(len(in.Secret))
			sum = satBits(sum, per[i])
		}
		if a.cfg.Precision == PrecisionAdaptive && sum > a.cfg.AdaptiveThreshold {
			return nil, false // escalate the whole batch
		}
		rung = RungStatic
	}
	res := a.rungResult(rung, sum, staticDur, staticHit)
	res.Runs = make([]RunSummary, len(inputs))
	for i := range inputs {
		res.Runs[i] = RunSummary{Run: i, Bits: per[i], Degraded: true, Rung: rung}
	}
	res.Stages.Total = time.Since(t0)
	return res, true
}

// rungResult assembles a no-execution Result: a sound upper bound with
// no graph, flow, or cut. Degraded is set — the bound is looser than a
// full solve — and Rung records which rung produced it.
func (a *Analyzer) rungResult(rung string, bits int64, staticDur time.Duration, staticHit bool) *Result {
	return &Result{
		Bits:           bits,
		Rung:           rung,
		Degraded:       true,
		DegradedReason: fmt.Sprintf("precision ladder: %s-rung upper bound, no execution", rung),
		Stages:         StageStats{Static: staticDur},
		Cache:          CacheTrace{StaticHit: staticHit},
		prog:           a.prog,
	}
}
