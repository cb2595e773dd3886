package serve

import (
	"slices"
	"testing"
	"time"
)

// Backoff jitter decorrelates retry storms only if separate services draw
// different jitter: two services with identical options must not produce
// the same backoff sequence, and every draw stays in [d/2, d].
func TestBackoffJitterDiffersAcrossServices(t *testing.T) {
	draw := func(s *Service) []time.Duration {
		out := make([]time.Duration, 16)
		for i := range out {
			out[i] = Backoff(s.opts.BaseBackoff, s.opts.MaxBackoff, 8) // capped at MaxBackoff: the widest jitter range
			if d := s.opts.MaxBackoff; out[i] < d/2 || out[i] > d {
				t.Fatalf("backoff %v outside [%v, %v]", out[i], d/2, d)
			}
		}
		return out
	}
	a, b := draw(New(Options{})), draw(New(Options{}))
	if slices.Equal(a, b) {
		t.Fatalf("two services drew the same backoff sequence %v", a)
	}
	// Below the cap the delay doubles per retry before the jitter.
	for k, d := range []time.Duration{10, 20, 40, 80, 100, 100} {
		d *= time.Millisecond
		if got := Backoff(10*time.Millisecond, 100*time.Millisecond, k+1); got < d/2 || got > d {
			t.Fatalf("retry %d: backoff %v outside [%v, %v]", k+1, got, d/2, d)
		}
	}
}
