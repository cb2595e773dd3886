//go:build race

package engine_test

// Under the race detector sync.Pool drops a quarter of what is put back,
// so a warmed analyzer rebuilds sessions at random and per-run allocation
// bounds do not hold.
func init() { raceEnabled = true }
