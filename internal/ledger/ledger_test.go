package ledger

import (
	"errors"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"testing"
	"time"

	"flowcheck/internal/fault"
)

func quiet() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

func mustOpen(t *testing.T, opts Options) *Ledger {
	t.Helper()
	if opts.Logger == nil {
		opts.Logger = quiet()
	}
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func chargeSettle(t *testing.T, l *Ledger, principal, program string, estimate, actual int64) {
	t.Helper()
	c, err := l.Charge(principal, program, estimate)
	if err != nil {
		t.Fatalf("Charge: %v", err)
	}
	if err := l.Settle(c, actual); err != nil {
		t.Fatalf("Settle: %v", err)
	}
}

func TestChargeSettleAccounting(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir(), BudgetBits: 100})

	c, err := l.Charge("alice", "auth", 32)
	if err != nil {
		t.Fatalf("Charge: %v", err)
	}
	if got := l.Cumulative("alice", "auth"); got != 32 {
		t.Fatalf("cumulative while pending = %d, want 32 (the estimate)", got)
	}
	if err := l.Settle(c, 3); err != nil {
		t.Fatalf("Settle: %v", err)
	}
	if got := l.Cumulative("alice", "auth"); got != 3 {
		t.Fatalf("cumulative after settle = %d, want 3 (the measured bits)", got)
	}
	// Settle is idempotent.
	if err := l.Settle(c, 3); err != nil {
		t.Fatalf("re-Settle: %v", err)
	}
	if got := l.Cumulative("alice", "auth"); got != 3 {
		t.Fatalf("cumulative after double settle = %d, want 3", got)
	}
	if rem, ok := l.Remaining("alice", "auth"); !ok || rem != 97 {
		t.Fatalf("Remaining = %d,%v, want 97,true", rem, ok)
	}
}

func TestBudgetDenialIsTyped(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir(), BudgetBits: 10})

	chargeSettle(t, l, "alice", "auth", 8, 8)
	_, err := l.Charge("alice", "auth", 8)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("over-budget charge: got %v, want ErrBudgetExceeded", err)
	}
	var ex *ExceededError
	if !errors.As(err, &ex) {
		t.Fatalf("no ExceededError detail in %v", err)
	}
	if ex.CumulativeBits != 8 || ex.EstimateBits != 8 || ex.BudgetBits != 10 {
		t.Fatalf("detail %+v, want cumulative=8 estimate=8 budget=10", ex)
	}
	// The estimate alone can exceed budget even at zero cumulative.
	if _, err := l.Charge("bob", "auth", 11); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("oversized first charge: got %v, want ErrBudgetExceeded", err)
	}
	// A fitting charge still goes through.
	if _, err := l.Charge("alice", "auth", 2); err != nil {
		t.Fatalf("fitting charge denied: %v", err)
	}
	st := l.Stats()
	if st.Denied != 2 {
		t.Fatalf("Stats.Denied = %d, want 2", st.Denied)
	}
}

func TestPendingCountsTowardBudget(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir(), BudgetBits: 10})
	if _, err := l.Charge("alice", "auth", 8); err != nil {
		t.Fatalf("first charge: %v", err)
	}
	// 8 pending + 8 estimated > 10: denied even though nothing settled yet.
	if _, err := l.Charge("alice", "auth", 8); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("concurrent charge: got %v, want ErrBudgetExceeded", err)
	}
}

func TestUnlimitedBudgetNeverDenies(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir()}) // BudgetBits 0 = unlimited
	for i := 0; i < 10; i++ {
		chargeSettle(t, l, "alice", "auth", 1<<40, 1<<40)
	}
	if rem, ok := l.Remaining("alice", "auth"); ok {
		t.Fatalf("unlimited pair reported remaining %d", rem)
	}
	if got := l.Cumulative("alice", "auth"); got != 10<<40 {
		t.Fatalf("cumulative = %d, want %d", got, int64(10)<<40)
	}
}

func TestWindowDecayResetsSettled(t *testing.T) {
	now := time.Unix(1000, 0)
	l := mustOpen(t, Options{
		Dir:        t.TempDir(),
		BudgetBits: 10,
		Window:     time.Minute,
		Now:        func() time.Time { return now },
	})
	chargeSettle(t, l, "alice", "auth", 8, 8)
	if _, err := l.Charge("alice", "auth", 8); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("within window: got %v, want denial", err)
	}
	now = now.Add(2 * time.Minute)
	c, err := l.Charge("alice", "auth", 8)
	if err != nil {
		t.Fatalf("after window elapsed, charge denied: %v", err)
	}
	if got := l.Cumulative("alice", "auth"); got != 8 {
		t.Fatalf("cumulative after reset = %d, want 8 (just the new pending)", got)
	}
	l.Settle(c, 2)
	if got := l.Cumulative("alice", "auth"); got != 2 {
		t.Fatalf("cumulative = %d, want 2", got)
	}
}

func TestWindowResetSurvivesPending(t *testing.T) {
	now := time.Unix(1000, 0)
	l := mustOpen(t, Options{
		Dir:    t.TempDir(),
		Window: time.Minute,
		Now:    func() time.Time { return now },
	})
	inflight, err := l.Charge("alice", "auth", 8)
	if err != nil {
		t.Fatal(err)
	}
	chargeSettle(t, l, "alice", "auth", 4, 4)
	now = now.Add(2 * time.Minute)
	// The reset fires on this charge; the in-flight 8 must survive it.
	c2, err := l.Charge("alice", "auth", 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Cumulative("alice", "auth"); got != 10 {
		t.Fatalf("cumulative after reset = %d, want 10 (8 in-flight + 2 new pending)", got)
	}
	l.Settle(inflight, 1)
	l.Settle(c2, 1)
	if got := l.Cumulative("alice", "auth"); got != 2 {
		t.Fatalf("cumulative = %d, want 2", got)
	}
}

func TestManualReset(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir(), BudgetBits: 10})
	chargeSettle(t, l, "alice", "auth", 10, 10)
	if _, err := l.Charge("alice", "auth", 1); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want denial before reset, got %v", err)
	}
	if err := l.Reset("alice", "auth"); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if _, err := l.Charge("alice", "auth", 1); err != nil {
		t.Fatalf("charge after reset denied: %v", err)
	}
}

func TestFailClosedDeniesOnWriteError(t *testing.T) {
	plan := fault.NewIOPlan().FailWrite(1) // fail the second append
	l := mustOpen(t, Options{Dir: t.TempDir(), BudgetBits: 100, Faults: plan})

	if _, err := l.Charge("alice", "auth", 8); err != nil {
		t.Fatalf("first charge: %v", err)
	}
	_, err := l.Charge("alice", "auth", 8)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("charge with failing WAL: got %v, want ErrUnavailable", err)
	}
	if errors.Is(err, ErrBudgetExceeded) {
		t.Fatal("unavailable must not look like a budget denial")
	}
	var ue *UnavailableError
	if !errors.As(err, &ue) || !errors.Is(ue.Cause, fault.ErrInjectedIO) {
		t.Fatalf("detail %+v", err)
	}
	// The denied charge did not count in memory.
	if got := l.Cumulative("alice", "auth"); got != 8 {
		t.Fatalf("cumulative = %d, want 8 (only the first charge)", got)
	}
	// The ledger recovers on the next healthy append.
	if _, err := l.Charge("alice", "auth", 8); err != nil {
		t.Fatalf("post-fault charge: %v", err)
	}
	st := l.Stats()
	if st.AppendErrors != 1 {
		t.Fatalf("AppendErrors = %d, want 1", st.AppendErrors)
	}
}

func TestFailClosedDeniesOnSyncError(t *testing.T) {
	plan := fault.NewIOPlan().FailSync(0)
	l := mustOpen(t, Options{Dir: t.TempDir(), Faults: plan})
	_, err := l.Charge("alice", "auth", 8)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("charge with failing fsync: got %v, want ErrUnavailable", err)
	}
	if st := l.Stats(); st.SyncErrors != 1 {
		t.Fatalf("SyncErrors = %d, want 1", st.SyncErrors)
	}
}

func TestFailOpenAdmitsThroughFaults(t *testing.T) {
	plan := fault.NewIOPlan().FailWrite(0).FailSync(1)
	l := mustOpen(t, Options{Dir: t.TempDir(), BudgetBits: 100, FailOpen: true, Faults: plan})

	c, err := l.Charge("alice", "auth", 8) // write fails, fail-open admits
	if err != nil {
		t.Fatalf("fail-open charge: %v", err)
	}
	if err := l.Settle(c, 3); err != nil { // sync 1 fails, fail-open shrugs
		t.Fatalf("fail-open settle: %v", err)
	}
	if got := l.Cumulative("alice", "auth"); got != 3 {
		t.Fatalf("cumulative = %d, want 3 — in-memory accounting must continue", got)
	}
	st := l.Stats()
	if st.LostWrites == 0 {
		t.Fatal("fail-open losses must be counted")
	}
}

func TestSettleErrorKeepsChargePending(t *testing.T) {
	plan := fault.NewIOPlan().FailWrite(1)
	l := mustOpen(t, Options{Dir: t.TempDir(), BudgetBits: 100, Faults: plan})
	c, err := l.Charge("alice", "auth", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Settle(c, 2); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("settle with failing WAL: got %v, want ErrUnavailable", err)
	}
	// The charge stays pending at its estimate — exactly what a replay
	// would reconstruct.
	if got := l.Cumulative("alice", "auth"); got != 8 {
		t.Fatalf("cumulative = %d, want 8 (estimate still pending)", got)
	}
	// A retried settle on a healthy WAL completes it.
	if err := l.Settle(c, 2); err != nil {
		t.Fatalf("retried settle: %v", err)
	}
	if got := l.Cumulative("alice", "auth"); got != 2 {
		t.Fatalf("cumulative = %d, want 2", got)
	}
}

func TestVolatileLedgerWorksWithoutDir(t *testing.T) {
	l := mustOpen(t, Options{BudgetBits: 10})
	chargeSettle(t, l, "alice", "auth", 8, 8)
	if _, err := l.Charge("alice", "auth", 8); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("volatile ledger must still enforce: %v", err)
	}
	st := l.Stats()
	if st.Durable {
		t.Fatal("volatile ledger claims durability")
	}
	if st.Appends != 0 {
		t.Fatalf("volatile ledger counted %d appends", st.Appends)
	}
}

func TestStatsEntriesAndNearThreshold(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir(), BudgetBits: 10})
	chargeSettle(t, l, "alice", "auth", 9, 9) // 90% of budget
	chargeSettle(t, l, "bob", "auth", 2, 2)

	st := l.Stats()
	if len(st.Entries) != 2 {
		t.Fatalf("%d entries, want 2", len(st.Entries))
	}
	if st.Entries[0].Principal != "alice" || st.Entries[1].Principal != "bob" {
		t.Fatalf("entries not sorted: %+v", st.Entries)
	}
	a := st.Entries[0]
	if !a.NearThreshold || a.RemainingBits != 1 || a.MeanBitsPerQuery != 9 {
		t.Fatalf("alice entry %+v", a)
	}
	if st.Entries[1].NearThreshold {
		t.Fatalf("bob at 20%% flagged near-threshold")
	}
	if len(st.NearThreshold) != 1 || st.NearThreshold[0] != "alice/auth" {
		t.Fatalf("NearThreshold = %v", st.NearThreshold)
	}
}

func TestSnapshotCompactionShrinksWAL(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, SnapshotEvery: 8})
	for i := 0; i < 20; i++ {
		chargeSettle(t, l, "alice", "auth", 8, 1)
	}
	st := l.Stats()
	if st.Snapshots == 0 {
		t.Fatal("no snapshot taken despite SnapshotEvery=8 and 40 appends")
	}
	fi, err := os.Stat(filepath.Join(dir, "ledger.wal"))
	if err != nil {
		t.Fatal(err)
	}
	// 40 appends at ~40 bytes each would be ~1600 bytes un-compacted; after
	// compaction only the records since the last snapshot remain.
	if fi.Size() > 800 {
		t.Fatalf("WAL is %d bytes after compaction", fi.Size())
	}
	if _, err := os.Stat(filepath.Join(dir, "ledger.snap")); err != nil {
		t.Fatalf("no snapshot file: %v", err)
	}
	// And the compacted state reopens to the same totals.
	l.Close()
	l2 := mustOpen(t, Options{Dir: dir})
	if got := l2.Cumulative("alice", "auth"); got != 20 {
		t.Fatalf("reopened cumulative = %d, want 20", got)
	}
}

func TestClosedLedgerRejects(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir()})
	c, _ := l.Charge("alice", "auth", 1)
	l.Close()
	if _, err := l.Charge("alice", "auth", 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("charge after close: %v", err)
	}
	if err := l.Settle(c, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("settle after close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestSyncEveryPolicies(t *testing.T) {
	t.Run("never", func(t *testing.T) {
		l := mustOpen(t, Options{Dir: t.TempDir(), SyncEvery: -1})
		chargeSettle(t, l, "a", "p", 1, 1)
		if st := l.Stats(); st.Syncs != 0 {
			t.Fatalf("SyncEvery=-1 synced %d times", st.Syncs)
		}
	})
	t.Run("batched", func(t *testing.T) {
		l := mustOpen(t, Options{Dir: t.TempDir(), SyncEvery: 4})
		for i := 0; i < 4; i++ { // 8 appends = 2 sync batches
			chargeSettle(t, l, "a", "p", 1, 1)
		}
		if st := l.Stats(); st.Syncs != 2 {
			t.Fatalf("SyncEvery=4 over 8 appends synced %d times, want 2", st.Syncs)
		}
	})
	t.Run("every", func(t *testing.T) {
		l := mustOpen(t, Options{Dir: t.TempDir()})
		chargeSettle(t, l, "a", "p", 1, 1)
		if st := l.Stats(); st.Syncs != 2 {
			t.Fatalf("default sync policy over 2 appends synced %d times, want 2", st.Syncs)
		}
	})
}

func TestNegativeValuesClampToZero(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir(), BudgetBits: 10})
	c, err := l.Charge("alice", "auth", -5)
	if err != nil {
		t.Fatal(err)
	}
	if c.EstimateBits != 0 {
		t.Fatalf("negative estimate charged as %d", c.EstimateBits)
	}
	if err := l.Settle(c, -3); err != nil {
		t.Fatal(err)
	}
	if got := l.Cumulative("alice", "auth"); got != 0 {
		t.Fatalf("cumulative = %d, want 0", got)
	}
}
