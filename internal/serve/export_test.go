package serve

import "time"

// SetBreaker sets the breaker threshold and cooldown of programs
// registered after it, so a test can open a breaker in few requests and
// see it cool down quickly. Call it before Register.
func SetBreaker(s *Service, threshold int, cooldown time.Duration) {
	s.brThreshold, s.brCooldown = threshold, cooldown
}
