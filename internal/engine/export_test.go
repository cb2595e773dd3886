package engine

import (
	"context"
	"fmt"
	"sync/atomic"
)

// LiveSessions exposes the number of sessions currently checked out of the
// analyzer's pool, so the robustness tests can prove that no failure path
// leaks one.
func LiveSessions(a *Analyzer) int64 { return a.live.Load() }

// SessionsCreated exposes how many sessions pool.New has built: a second
// creation after a single-session workload proves a quarantined session
// was really replaced, not reused.
func SessionsCreated(a *Analyzer) int64 { return a.created.Load() }

// SessionsRecycled exposes how many sessions release quarantined instead
// of pooling (poisoned by a recovered panic, or over the high-water mark).
func SessionsRecycled(a *Analyzer) int64 { return a.recycled.Load() }

// SetHighWater lowers the analyzer's session recycle mark, so a test can
// reach it with a small graph. Call it before the first analysis.
func SetHighWater(a *Analyzer, edges int) { a.highWater = edges }

// HeldSession is one session drawn from an analyzer's pool and held
// across analyses. A test that measures warmed runs uses it because the
// pool does not promise to hand the same session back: Put leaves a
// session in the current P's private slot, and a Get from a goroutine
// that has since moved to another P builds a fresh one.
type HeldSession struct {
	a *Analyzer
	s *session
}

// HoldSession draws a session from a's pool until Release.
func HoldSession(a *Analyzer) *HeldSession { return &HeldSession{a: a, s: a.acquire()} }

// Analyze runs one execution on the held session, as Analyze does on a
// pooled one when no cache or ladder rung answers first.
func (h *HeldSession) Analyze(in Inputs) (*Result, error) {
	return h.a.runStages(context.Background(), h.s, h.a.sessionTracker(h.s), in, h.a.cfg.Fault.Run(0), nil)
}

// Release returns the held session to the pool.
func (h *HeldSession) Release() { h.a.release(h.s) }

var unseenNames atomic.Int64

// UnseenName returns a source file name no earlier call returned. The file
// name is part of a compiled program's cache key, so a program compiled
// under it misses the process-global static cache even when its test runs
// again in the same process (go test -count=N).
func UnseenName(base string) string {
	return fmt.Sprintf("%s#%d.mc", base, unseenNames.Add(1))
}
