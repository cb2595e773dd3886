// Package ledger is the durable leakage-budget ledger: per-(principal,
// program) cumulative disclosure accounting for the analysis service,
// crash-safe by construction.
//
// The quantitative analysis bounds one execution. Deployments ask the
// cumulative question — how many bits has this principal extracted across
// every query of the same secret? For adaptive queries over one secret,
// the sum of per-run max-flow bounds is itself a sound upper bound on the
// joint leakage: each run's bound covers everything its outputs reveal
// given the attacker's choice of public input, so a trajectory of runs
// reveals at most the sum (the same composition PAPERS.md's dynamic-
// leakage line formalizes, and the §3.2 joint analysis tightens when runs
// share a tracker). The ledger enforces a budget over that sum.
//
// Accounting is charge-before-run / settle-after-run:
//
//  1. Charge appends a WAL record reserving a pessimistic estimate
//     (typically 8·|secret| bits — no run can reveal more than the whole
//     secret) and counts it toward the principal's cumulative total.
//     A charge that would exceed the budget is denied with a typed
//     ErrBudgetExceeded before any analysis runs.
//  2. The analysis runs.
//  3. Settle appends a second record replacing the estimate with the
//     measured bound.
//
// A crash between 1 and 3 leaves a charge with no settle; replay recovers
// it at the full estimate — charged, never dropped — so the ledger can
// over-count across a crash but never under-count. Durability faults
// follow the same rule: by default the ledger fails closed (a WAL append
// or fsync error denies admission with ErrUnavailable), and the fail-open
// knob trades that enforcement for availability, loudly.
//
// The WAL is checksummed per record and compacted into a snapshot every
// SnapshotEvery appends; Open replays snapshot + tail, truncating a torn
// or corrupt tail (never skipping interior records). internal/fault's
// IOPlan injects write/fsync/replay failures for the crash soaks.
package ledger

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"time"

	"flowcheck/internal/fault"
)

// Typed outcomes. Concrete errors carry detail and match these via
// errors.Is.
var (
	// ErrBudgetExceeded marks a charge denied because the principal's
	// cumulative bits plus the request's estimate would exceed its budget.
	ErrBudgetExceeded = errors.New("ledger: leakage budget exceeded")
	// ErrUnavailable marks a charge denied because the ledger could not
	// record it durably and is configured to fail closed.
	ErrUnavailable = errors.New("ledger: unavailable")
	// ErrClosed marks an operation on a closed ledger.
	ErrClosed = errors.New("ledger: closed")
)

// ExceededError says whose budget a denied charge would have exceeded.
type ExceededError struct {
	Principal      string
	Program        string
	CumulativeBits int64 // settled + pending before this charge
	EstimateBits   int64
	BudgetBits     int64
	// RetryAfter is how long until the pair's decay window resets and
	// capacity returns (zero when the ledger has no window — the budget
	// is a lifetime total and retrying cannot help). The HTTP layer
	// surfaces it as the 429 Retry-After hint.
	RetryAfter time.Duration
}

func (e *ExceededError) Error() string {
	return fmt.Sprintf("ledger: leakage budget exceeded for %s/%s: %d bits cumulative + %d estimated > budget %d",
		e.Principal, e.Program, e.CumulativeBits, e.EstimateBits, e.BudgetBits)
}

func (e *ExceededError) Is(target error) bool { return target == ErrBudgetExceeded }

// UnavailableError reports a fail-closed denial caused by a durability
// fault; Unwrap exposes the underlying I/O error.
type UnavailableError struct {
	Op    string // "append", "sync", "open"
	Cause error
}

func (e *UnavailableError) Error() string {
	return fmt.Sprintf("ledger: unavailable (%s: %v)", e.Op, e.Cause)
}

func (e *UnavailableError) Is(target error) bool { return target == ErrUnavailable }
func (e *UnavailableError) Unwrap() error        { return e.Cause }

// Options configures a Ledger.
type Options struct {
	// Dir is the durability directory (ledger.wal + ledger.snap). Empty
	// means a volatile, memory-only ledger: sound within the process,
	// nothing survives a restart.
	Dir string

	// BudgetBits is the cumulative budget per (principal, program)
	// pair; 0 means unlimited (the ledger still accounts, never denies).
	BudgetBits int64

	// Window, when positive, is the decay policy: a pair's settled bits
	// reset once the window has elapsed since the pair's window began, so
	// budgets bound a rate ("64 bits per hour") instead of a lifetime
	// total. Resets are WAL records — replay reproduces them exactly.
	// In-flight (pending) charges survive a reset: they are current leaks.
	Window time.Duration

	// FailOpen inverts the durability-fault policy: instead of denying
	// admission when a WAL append or fsync fails (the default, fail
	// closed), the ledger logs, keeps counting in memory, and admits.
	// Stats.LostWrites counts what a crash would now under-count.
	FailOpen bool

	// SyncEvery controls fsync cadence: 0 or 1 syncs every append (the
	// default — a settled record is durable when Settle returns), N > 1
	// syncs every N appends, and -1 never syncs (the OS decides).
	SyncEvery int

	// SnapshotEvery compacts the WAL into a snapshot after this many
	// appends (default 4096; -1 disables compaction).
	SnapshotEvery int

	// Faults injects deterministic WAL write/fsync/replay failures
	// (internal/fault.IOPlan); nil injects nothing.
	Faults *fault.IOPlan

	// Logger receives replay, truncation, and fail-open loss reports; nil
	// disables logging.
	Logger *slog.Logger

	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 4096
	}
	if o.SyncEvery == 0 {
		o.SyncEvery = 1
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// pairKey identifies one ledger entry.
type pairKey struct{ principal, program string }

// entry is one (principal, program) pair's accounting. Its in-flight
// charges live in the ledger's pending index, not in the entry.
type entry struct {
	key         pairKey
	settled     int64 // settled bits in the current window
	pendingBits int64 // sum of pending estimates
	queries     int64 // settled charges, ever
	denied      int64 // charges denied over budget, ever
	lastBits    int64 // most recent settled amount
	windowStart time.Time
}

// pendingCharge is one charge awaiting its settle: the entry it counts
// toward and its pessimistic estimate.
type pendingCharge struct {
	e   *entry
	est int64
}

func (e *entry) cumulative() int64 { return e.settled + e.pendingBits }

// Charge is one in-flight reservation, returned by Ledger.Charge and
// consumed by Settle.
type Charge struct {
	LSN          uint64
	Principal    string
	Program      string
	EstimateBits int64
}

// Ledger is the durable cumulative-bits ledger. It is safe for concurrent
// use; all state transitions serialize on one mutex so the WAL order is
// exactly the in-memory apply order.
type Ledger struct {
	opts Options
	log  *slog.Logger

	mu        lockedState
	stateless bool // no Dir: volatile ledger
}

// lockedState bundles everything the ledger mutex guards.
type lockedState struct {
	ch chan struct{} // 1-token semaphore; select-free Lock/Unlock below

	entries map[pairKey]*entry
	// pending is the one index of in-flight charges, by charge LSN: the
	// live settle path, replay, recovery and the snapshot all go through
	// it.
	pending map[uint64]pendingCharge
	nextLSN uint64

	wal       *os.File
	appends   int64 // since last snapshot
	syncDebt  int   // appends since last fsync
	closed    bool
	snapshots int64

	stats statsCounters
}

type statsCounters struct {
	charged, settled, denied  int64
	appendErrors, syncErrors  int64
	lostWrites                int64
	appendsTotal, syncsTotal  int64
	snapshotErrors            int64
	replayedRecords           int64
	truncations               int64
	truncatedBytes            int64
	recoveredPending          int64
	replayCorruptionsInjected int64
}

func (s *lockedState) lock()   { s.ch <- struct{}{} }
func (s *lockedState) unlock() { <-s.ch }

// Open creates or recovers a ledger. With a Dir, it loads the snapshot
// (if any), replays the WAL tail — truncating torn or corrupt trailing
// bytes — and pessimistically settles any charge that never settled (a
// run in flight when the previous process died is charged at its full
// estimate, not dropped). A corrupt snapshot fails Open unless FailOpen
// is set, in which case recovery proceeds from whatever is readable.
func Open(opts Options) (*Ledger, error) {
	opts = opts.withDefaults()
	l := &Ledger{
		opts:      opts,
		log:       opts.Logger,
		stateless: opts.Dir == "",
	}
	l.mu.ch = make(chan struct{}, 1)
	l.mu.entries = map[pairKey]*entry{}
	l.mu.pending = map[uint64]pendingCharge{}
	l.mu.nextLSN = 1

	if l.stateless {
		return l, nil
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	if err := l.recover(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(l.walPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ledger: opening WAL: %w", err)
	}
	l.mu.wal = f
	// Pessimistically settle the charges recovered in flight, durably:
	// after this, a second crash replays them identically.
	l.settleRecovered()
	return l, nil
}

func (l *Ledger) walPath() string  { return filepath.Join(l.opts.Dir, "ledger.wal") }
func (l *Ledger) snapPath() string { return filepath.Join(l.opts.Dir, "ledger.snap") }

func (l *Ledger) entryLocked(k pairKey) *entry {
	e := l.mu.entries[k]
	if e == nil {
		e = &entry{key: k, windowStart: l.opts.Now()}
		l.mu.entries[k] = e
	}
	return e
}

// maybeResetWindowLocked applies the decay policy at charge time: when
// the pair's window has elapsed, its settled bits reset (durably, via a
// reset record). Pending charges survive — they are in-flight leaks of
// the current moment, and dropping them could under-count.
func (l *Ledger) maybeResetWindowLocked(k pairKey, e *entry, now time.Time) {
	if l.opts.Window <= 0 || now.Sub(e.windowStart) < l.opts.Window {
		return
	}
	lsn := l.mu.nextLSN
	if err := l.appendLocked(encodeReset(lsn, k.principal, k.program, now.UnixNano())); err != nil {
		// Both policies keep the old window on a failed reset write: the
		// entry keeps over-counting (sound) until a reset can be recorded.
		l.log.Warn("ledger: window reset not recorded; keeping old window",
			"principal", k.principal, "program", k.program, "err", err)
		return
	}
	l.mu.nextLSN = lsn + 1
	e.settled = 0
	e.windowStart = now
}

// Charge reserves estimate bits against (principal, program), durably,
// before the run. It returns ErrBudgetExceeded (typed, with detail) when
// the budget cannot cover the estimate, and ErrUnavailable when the WAL
// cannot record the charge and the ledger fails closed.
func (l *Ledger) Charge(principal, program string, estimate int64) (*Charge, error) {
	if estimate < 0 {
		estimate = 0
	}
	l.mu.lock()
	defer l.mu.unlock()
	if l.mu.closed {
		return nil, ErrClosed
	}
	l.mu.stats.charged++
	k := pairKey{principal, program}
	e := l.entryLocked(k)
	l.maybeResetWindowLocked(k, e, l.opts.Now())

	if budget := l.opts.BudgetBits; budget > 0 && e.cumulative()+estimate > budget {
		e.denied++
		l.mu.stats.denied++
		exc := &ExceededError{
			Principal:      principal,
			Program:        program,
			CumulativeBits: e.cumulative(),
			EstimateBits:   estimate,
			BudgetBits:     budget,
		}
		if l.opts.Window > 0 {
			if left := l.opts.Window - l.opts.Now().Sub(e.windowStart); left > 0 {
				exc.RetryAfter = left
			}
		}
		return nil, exc
	}

	lsn := l.mu.nextLSN
	if err := l.appendLocked(encodeCharge(lsn, principal, program, estimate)); err != nil {
		if !l.opts.FailOpen {
			// Fail closed: deny, and do NOT count the charge in memory. If
			// the record did reach the disk despite the error, a later
			// replay over-counts by one estimate — sound; never under.
			return nil, &UnavailableError{Op: "append", Cause: err}
		}
		l.mu.stats.lostWrites++
		l.log.Warn("ledger: charge not durable (fail-open); a crash will under-count it",
			"principal", principal, "program", program, "estimate_bits", estimate, "err", err)
	}
	l.mu.nextLSN = lsn + 1
	e.pendingBits += estimate
	l.mu.pending[lsn] = pendingCharge{e, estimate}
	l.maybeCompactLocked()
	return &Charge{LSN: lsn, Principal: principal, Program: program, EstimateBits: estimate}, nil
}

// Settle replaces a charge's pessimistic estimate with the run's measured
// bits (pass 0 for a request that returned no analysis output). Settling
// is idempotent per charge. A WAL error under fail-closed keeps the
// charge pending at its estimate — in memory exactly as a replay would
// reconstruct it — and returns the error for logging; the caller's
// response is not blocked (the bits, if any, are already out).
func (l *Ledger) Settle(c *Charge, actual int64) error {
	if c == nil {
		return nil
	}
	if actual < 0 {
		actual = 0
	}
	l.mu.lock()
	defer l.mu.unlock()
	if l.mu.closed {
		return ErrClosed
	}
	p, ok := l.mu.pending[c.LSN]
	if !ok {
		return nil // already settled (or recovered by a concurrent close path)
	}
	lsn := l.mu.nextLSN
	if err := l.appendLocked(encodeSettle(lsn, c.LSN, actual)); err != nil {
		if !l.opts.FailOpen {
			return &UnavailableError{Op: "append", Cause: err}
		}
		l.mu.stats.lostWrites++
		l.log.Warn("ledger: settle not durable (fail-open); a crash re-charges the estimate",
			"principal", c.Principal, "program", c.Program, "actual_bits", actual, "err", err)
	}
	l.mu.nextLSN = lsn + 1
	l.settleLocked(c.LSN, p, actual)
	l.mu.stats.settled++
	l.maybeCompactLocked()
	return nil
}

// settleLocked applies a settle to the in-memory state: the live path and
// replay both come through here.
func (l *Ledger) settleLocked(chargeLSN uint64, p pendingCharge, actual int64) {
	delete(l.mu.pending, chargeLSN)
	e := p.e
	e.pendingBits -= p.est
	e.settled += actual
	e.queries++
	e.lastBits = actual
}

// Reset durably zeroes a pair's settled bits (an operator action: the
// secret was rotated, so past disclosure no longer composes with future
// queries). Pending charges survive.
func (l *Ledger) Reset(principal, program string) error {
	l.mu.lock()
	defer l.mu.unlock()
	if l.mu.closed {
		return ErrClosed
	}
	k := pairKey{principal, program}
	e := l.entryLocked(k)
	now := l.opts.Now()
	lsn := l.mu.nextLSN
	if err := l.appendLocked(encodeReset(lsn, principal, program, now.UnixNano())); err != nil {
		if !l.opts.FailOpen {
			return &UnavailableError{Op: "append", Cause: err}
		}
		l.mu.stats.lostWrites++
	}
	l.mu.nextLSN = lsn + 1
	e.settled = 0
	e.windowStart = now
	l.maybeCompactLocked()
	return nil
}

// Cumulative reports a pair's current cumulative bits (settled plus
// in-flight estimates).
func (l *Ledger) Cumulative(principal, program string) int64 {
	l.mu.lock()
	defer l.mu.unlock()
	if e := l.mu.entries[pairKey{principal, program}]; e != nil {
		return e.cumulative()
	}
	return 0
}

// Remaining reports how many bits of budget a pair has left; unlimited
// pairs report (0, false).
func (l *Ledger) Remaining(principal, program string) (int64, bool) {
	budget := l.opts.BudgetBits
	if budget <= 0 {
		return 0, false
	}
	rem := budget - l.Cumulative(principal, program)
	if rem < 0 {
		rem = 0
	}
	return rem, true
}

// appendLocked writes one framed record to the WAL, honoring the fault
// plan and the fsync policy, and triggers snapshot compaction on the
// configured cadence. Volatile ledgers (no Dir) skip all of it.
func (l *Ledger) appendLocked(rec []byte) error {
	if l.mu.wal == nil {
		return nil
	}
	l.mu.stats.appendsTotal++
	if err := l.opts.Faults.WriteErr(); err != nil {
		l.mu.stats.appendErrors++
		return err
	}
	if _, err := l.mu.wal.Write(rec); err != nil {
		l.mu.stats.appendErrors++
		return err
	}
	l.mu.syncDebt++
	if l.opts.SyncEvery > 0 && l.mu.syncDebt >= l.opts.SyncEvery {
		l.mu.syncDebt = 0
		l.mu.stats.syncsTotal++
		if err := l.opts.Faults.SyncErr(); err != nil {
			l.mu.stats.syncErrors++
			return err
		}
		if err := l.mu.wal.Sync(); err != nil {
			l.mu.stats.syncErrors++
			return err
		}
	}
	l.mu.appends++
	return nil
}

// maybeCompactLocked runs snapshot compaction on the configured cadence.
// Callers invoke it AFTER applying a record's effect in memory and
// advancing nextLSN — never from inside appendLocked — so the snapshot
// always covers the record that tripped the threshold (otherwise that
// record would be truncated out of the WAL without being folded in).
func (l *Ledger) maybeCompactLocked() {
	if l.mu.wal == nil || l.opts.SnapshotEvery <= 0 || l.mu.appends < int64(l.opts.SnapshotEvery) {
		return
	}
	if err := l.snapshotLocked(); err != nil {
		// Compaction failure is not a durability failure: the WAL still
		// has everything. Log and keep appending to it.
		l.mu.stats.snapshotErrors++
		l.log.Warn("ledger: snapshot compaction failed; WAL keeps growing", "err", err)
	}
}

// Snapshot forces a compaction (tests and operator tooling).
func (l *Ledger) Snapshot() error {
	l.mu.lock()
	defer l.mu.unlock()
	if l.mu.closed {
		return ErrClosed
	}
	if l.mu.wal == nil {
		return nil
	}
	return l.snapshotLocked()
}

// Close syncs and closes the WAL. Further operations return ErrClosed.
func (l *Ledger) Close() error {
	l.mu.lock()
	defer l.mu.unlock()
	if l.mu.closed {
		return nil
	}
	l.mu.closed = true
	if l.mu.wal == nil {
		return nil
	}
	err := l.mu.wal.Sync()
	if cerr := l.mu.wal.Close(); err == nil {
		err = cerr
	}
	l.mu.wal = nil
	return err
}

// --- stats ------------------------------------------------------------

// EntryStats is one (principal, program) pair's ledger snapshot.
type EntryStats struct {
	Principal      string `json:"principal"`
	Program        string `json:"program"`
	SettledBits    int64  `json:"settled_bits"`
	PendingBits    int64  `json:"pending_bits"`
	CumulativeBits int64  `json:"cumulative_bits"`
	BudgetBits     int64  `json:"budget_bits"`    // 0 = unlimited
	RemainingBits  int64  `json:"remaining_bits"` // -1 = unlimited
	Queries        int64  `json:"queries"`
	Denied         int64  `json:"denied"`
	LastBits       int64  `json:"last_bits"`
	// MeanBitsPerQuery is settled bits per settled query this window.
	MeanBitsPerQuery float64 `json:"mean_bits_per_query"`
	// NearThreshold flags pairs at or past 90% of their budget — the
	// alerting surface of the ε-budget runbook.
	NearThreshold bool `json:"near_threshold"`
}

// Stats is a full ledger snapshot for /statz.
type Stats struct {
	Durable  bool `json:"durable"`
	FailOpen bool `json:"fail_open"`
	// DefaultBudgetBits is Options.BudgetBits (0 = unlimited).
	DefaultBudgetBits int64 `json:"default_budget_bits"`

	Charged int64 `json:"charged"`
	Settled int64 `json:"settled"`
	Denied  int64 `json:"denied"`

	Appends      int64 `json:"appends"`
	Syncs        int64 `json:"syncs"`
	AppendErrors int64 `json:"append_errors"`
	SyncErrors   int64 `json:"sync_errors"`
	LostWrites   int64 `json:"lost_writes"`
	Snapshots    int64 `json:"snapshots"`
	SnapshotErrs int64 `json:"snapshot_errors"`
	WALBytes     int64 `json:"wal_bytes"`

	ReplayedRecords  int64 `json:"replayed_records"`
	RecoveredPending int64 `json:"recovered_pending"`
	Truncations      int64 `json:"truncations"`
	TruncatedBytes   int64 `json:"truncated_bytes"`

	// Entries lists every pair, sorted by principal then program.
	Entries []EntryStats `json:"entries"`
	// NearThreshold lists "principal/program" pairs at ≥90% of budget.
	NearThreshold []string `json:"near_threshold,omitempty"`
}

// Stats snapshots the ledger.
func (l *Ledger) Stats() Stats {
	l.mu.lock()
	defer l.mu.unlock()
	c := l.mu.stats
	st := Stats{
		Durable:           !l.stateless,
		FailOpen:          l.opts.FailOpen,
		DefaultBudgetBits: l.opts.BudgetBits,
		Charged:           c.charged,
		Settled:           c.settled,
		Denied:            c.denied,
		Appends:           c.appendsTotal,
		Syncs:             c.syncsTotal,
		AppendErrors:      c.appendErrors,
		SyncErrors:        c.syncErrors,
		LostWrites:        c.lostWrites,
		Snapshots:         l.mu.snapshots,
		SnapshotErrs:      c.snapshotErrors,
		ReplayedRecords:   c.replayedRecords,
		RecoveredPending:  c.recoveredPending,
		Truncations:       c.truncations,
		TruncatedBytes:    c.truncatedBytes,
	}
	if l.mu.wal != nil {
		if fi, err := l.mu.wal.Stat(); err == nil {
			st.WALBytes = fi.Size()
		}
	}
	keys := make([]pairKey, 0, len(l.mu.entries))
	for k := range l.mu.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].principal != keys[j].principal {
			return keys[i].principal < keys[j].principal
		}
		return keys[i].program < keys[j].program
	})
	for _, k := range keys {
		e := l.mu.entries[k]
		es := EntryStats{
			Principal:      k.principal,
			Program:        k.program,
			SettledBits:    e.settled,
			PendingBits:    e.pendingBits,
			CumulativeBits: e.cumulative(),
			BudgetBits:     l.opts.BudgetBits,
			RemainingBits:  -1,
			Queries:        e.queries,
			Denied:         e.denied,
			LastBits:       e.lastBits,
		}
		if e.queries > 0 {
			es.MeanBitsPerQuery = float64(e.settled) / float64(e.queries)
		}
		if es.BudgetBits > 0 {
			rem := es.BudgetBits - es.CumulativeBits
			if rem < 0 {
				rem = 0
			}
			es.RemainingBits = rem
			if es.CumulativeBits*10 >= es.BudgetBits*9 {
				es.NearThreshold = true
				st.NearThreshold = append(st.NearThreshold, k.principal+"/"+k.program)
			}
		}
		st.Entries = append(st.Entries, es)
	}
	return st
}
