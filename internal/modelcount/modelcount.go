// Package modelcount is a bounded behavior-counting lower bound on
// leakage, the cross-check the precision ladder's upper bounds are
// measured against in experiments and tests (it is deliberately not part
// of the serving path).
//
// The idea follows the dynamic-leakage model-counting literature (Chu et
// al., "Quantifying Dynamic Leakage"): enumerate secrets, run the guest
// uninstrumented on each, and partition the enumerated secrets by
// observable behavior — output bytes, exit code, and whether the run
// trapped. The partition is exactly the satisfiability partition of the
// guest's path conditions restricted to the enumerated domain (two
// secrets land in the same class iff every observable predicate resolved
// the same way), so counting classes is a #SAT-lite over concrete
// executions. Distinguishing D behaviors requires log2(D) bits, so for
// ANY sound upper bound U over the enumerated inputs:
//
//	log2(D) ≤ U
//
// and the inequality holds per rung: log2(D) ≤ merged measured bits ≤
// (summed) static ≤ trivial. Enumerating a subset of the domain only
// shrinks D, so a truncated enumeration still yields a valid lower
// bound — just a weaker one; Count.Exhaustive reports whether the whole
// domain was covered.
package modelcount

import (
	"math"

	"flowcheck/internal/vm"
)

// Options bounds the enumeration.
type Options struct {
	// SecretLen is the secret size in bytes; the domain is all 256^SecretLen
	// byte strings.
	SecretLen int
	// Public is the fixed public input (the §3.1 attack model: the
	// adversary knows everything but the secret).
	Public []byte
	// MaxSecrets caps how many secrets are enumerated (default 256).
	MaxSecrets int
}

// Count is the enumeration outcome.
type Count struct {
	// Behaviors is D: the number of distinct observable behaviors.
	Behaviors int
	// Enumerated is how many secrets were run.
	Enumerated int
	// Exhaustive reports that the entire secret domain was enumerated, so
	// LowerBits bounds the program's true capacity, not just the sample's.
	Exhaustive bool
	// LowerBits is log2(Behaviors): the leakage lower bound in bits.
	LowerBits float64
}

// Enumerate runs p on secrets drawn in lexicographic order from the
// SecretLen-byte domain and counts distinct behaviors. Execution is the
// plain VM — no tracker, no graph — so a large enumeration costs exactly
// what the guest costs.
func Enumerate(p *vm.Program, opts Options) Count {
	maxSecrets := opts.MaxSecrets
	if maxSecrets <= 0 {
		maxSecrets = 256
	}

	domain := math.Inf(1)
	if opts.SecretLen < 8 { // 256^8 overflows; beyond that it is surely > maxSecrets
		domain = math.Pow(256, float64(opts.SecretLen))
	}

	secret := make([]byte, opts.SecretLen)
	behaviors := make(map[string]struct{})
	// One machine serves every secret: Reset restores only the pages the
	// previous run wrote.
	m := vm.NewMachine(p)
	n := 0
	for ; n < maxSecrets; n++ {
		m.Reset()
		m.SecretIn = secret
		m.PublicIn = opts.Public
		err := m.Run()
		behaviors[behaviorKey(m, err)] = struct{}{}
		if !nextSecret(secret) {
			n++
			break
		}
	}
	c := Count{
		Behaviors:  len(behaviors),
		Enumerated: n,
		Exhaustive: float64(n) >= domain,
	}
	if c.Behaviors > 0 {
		c.LowerBits = math.Log2(float64(c.Behaviors))
	}
	return c
}

// behaviorKey folds one run's observables into a comparable key. A
// trapped run (including step-limit exhaustion) is its own observable:
// the adversary sees the crash.
func behaviorKey(m *vm.Machine, err error) string {
	trap := byte(0)
	if err != nil {
		trap = 1
	}
	// Output bytes can contain anything, so length-prefix via string cast
	// of the raw buffer plus fixed-width trailer fields.
	return string(m.Output) + "\x00" + string([]byte{
		trap,
		byte(m.ExitCode), byte(m.ExitCode >> 8), byte(m.ExitCode >> 16), byte(m.ExitCode >> 24),
	})
}

// nextSecret increments the byte string lexicographically (big-endian:
// the last byte varies fastest). Returns false on wraparound, i.e. the
// domain is exhausted.
func nextSecret(s []byte) bool {
	for i := len(s) - 1; i >= 0; i-- {
		s[i]++
		if s[i] != 0 {
			return true
		}
	}
	return false
}
