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
			out[i] = s.backoff(8) // capped at MaxBackoff: the widest jitter range
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
}
