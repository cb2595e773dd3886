// Package kraft checks the soundness condition of paper §3.1: a set of
// per-input flow bounds k(i) corresponds to a uniquely-decodable code —
// and is therefore jointly sound — only if Kraft's inequality holds:
//
//	Σ 2^(-k(i)) ≤ 1
//
// The paper uses the inequality both to define soundness for multi-run
// measurements and to demonstrate (§3.2) that naively taking each run's
// own minimum cut can be unsound: for the character-printing loop,
// min(8, n+1) over n = 0..255 sums to 503/256 > 1.
package kraft

import "math"

// Sum computes Σ 2^(-k) for the given bit counts. Counts above 1023 are
// treated as contributing 0 (they cannot affect the comparison against 1
// at float64 precision).
func Sum(ks []int64) float64 {
	var total float64
	for _, k := range ks {
		if k < 0 {
			k = 0
		}
		if k > 1023 {
			continue
		}
		total += math.Pow(2, -float64(k))
	}
	return total
}

// Satisfied reports whether the bounds satisfy Kraft's inequality, i.e.
// whether a prefix-free code with these lengths exists. A tiny epsilon
// absorbs floating-point error in the sum.
func Satisfied(ks []int64) bool {
	return Sum(ks) <= 1+1e-9
}
