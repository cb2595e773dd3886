// Command flowserved is the long-lived analysis daemon: it serves the
// quantitative information-flow analysis over HTTP/JSON, with the
// resilience layer of internal/serve in front of the engine — bounded
// deadline-aware admission, immediate retry with the budget doubled when a
// run exceeds it (up to three attempts), per-program circuit breaking
// (three consecutive internal failures open it for 500ms), crash-isolated
// session recycling, and graceful drain on SIGTERM.
//
// Usage:
//
//	flowserved [-addr :8077] [flags]
//
// Endpoints:
//
//	POST /analyze  {"program":"sshauth","secret":"hunter2...","timeout_ms":500}
//	GET  /healthz  service statistics (breakers, pools, queue, EWMA latency)
//	GET  /readyz   200 while admitting; 503 once draining
//	GET  /statz    cache observability: hit/miss/evict/bytes, per-stage hit ratios
//
// The daemon runs a shared content-addressed stage cache (-cache-bytes,
// default 64 MiB; 0 disables): repeat requests are answered from the
// cache before admission queuing (X-Flow-Cache: hit, attempts 0), and an
// input-only change is a plain miss that reuses the program's static
// analysis (X-Flow-Cache: miss).
//
// With -ledger-dir (and/or -budget-bits) the daemon keeps a durable
// leakage-budget ledger: each request is charged a pessimistic estimate
// against its principal (X-Flow-Principal header or "principal" field)
// before running and settled to the measured bits after; principals over
// budget get 429 with kind "budget-exceeded", and ledger I/O failures
// deny with 503 "ledger-unavailable" unless -ledger-fail-open. The WAL in
// -ledger-dir replays on boot, so cumulative bits — and exhausted
// budgets — survive crashes and restarts.
//
// Every built-in case-study guest (flowcheck guests) is registered as a
// program; -src FILE.mc registers additional MiniC programs by file
// basename. Shed requests (queue full, or a deadline the current backlog
// cannot meet) return 503 with kind "overload" without consuming a
// worker; an open circuit breaker returns 503 with kind "breaker-open".
// On SIGTERM/SIGINT the daemon stops admitting (readyz goes 503), drains
// in-flight requests, and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"flowcheck/internal/engine"
	"flowcheck/internal/guest"
	"flowcheck/internal/lang"
	"flowcheck/internal/ledger"
	"flowcheck/internal/serve"
	"flowcheck/internal/taint"
)

type srcList []string

func (s *srcList) String() string     { return strings.Join(*s, ",") }
func (s *srcList) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "flowserved:", err)
		os.Exit(1)
	}
}

func run() error {
	fs := flag.NewFlagSet("flowserved", flag.ExitOnError)
	addr := fs.String("addr", ":8077", "listen address")
	workers := fs.Int("workers", 0, "concurrent analysis workers (0 = GOMAXPROCS)")
	queueDepth := fs.Int("queue-depth", 0, "admission queue depth (0 = 4x workers)")
	retryDegraded := fs.Bool("retry-degraded", false, "retry solver-degraded results with the solver budget doubled")
	cacheBytes := fs.Int64("cache-bytes", 64<<20, "shared content-addressed stage cache budget in bytes (0 = disable caching)")
	ledgerDir := fs.String("ledger-dir", "", "durable leakage-budget ledger directory (empty = no ledger)")
	budgetBits := fs.Int64("budget-bits", 0, "cumulative leakage budget per (principal, program) in bits (0 = account but never deny; requires -ledger-dir or -budget-bits>0 to enable the ledger)")
	ledgerWindow := fs.Duration("ledger-window", 0, "leakage budget decay window: settled bits reset this long after a pair's window opens (0 = lifetime budget)")
	ledgerSync := fs.Int("ledger-sync", 1, "fsync the ledger WAL every N appends (1 = every append, -1 = never)")
	ledgerFailOpen := fs.Bool("ledger-fail-open", false, "admit requests when ledger I/O fails instead of denying (default fail-closed)")
	exact := fs.Bool("exact", false, "exact-mode analysis (per-operation graphs)")
	maxSteps := fs.Uint64("max-steps", 0, "guest step limit (0 = engine default)")
	maxOutputBytes := fs.Int("max-output-bytes", 0, "per-run output budget in bytes (0 = unlimited)")
	maxGraphEdges := fs.Int("max-graph-edges", 0, "per-run graph edge budget (0 = unlimited)")
	solverBudget := fs.Int64("solver-budget", 0, "per-run solver work budget; exhaustion degrades (0 = unlimited)")
	shardName := fs.String("shard-name", "", "fleet shard identity; sets the X-Flow-Shard header on every response (empty = standalone)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight requests on shutdown")
	logJSON := fs.Bool("log-json", false, "emit structured logs as JSON instead of text")
	var srcs srcList
	fs.Var(&srcs, "src", "register a MiniC source file as a program (repeatable; program name is the file basename)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	log := slog.New(handler)

	// The ledger turns on when it has somewhere to persist or something to
	// enforce. -ledger-dir alone accounts durably without denying;
	// -budget-bits alone enforces in memory only (restart forgets).
	var led *ledger.Ledger
	if *ledgerDir != "" || *budgetBits > 0 {
		var err error
		led, err = ledger.Open(ledger.Options{
			Dir:        *ledgerDir,
			BudgetBits: *budgetBits,
			Window:     *ledgerWindow,
			SyncEvery:  *ledgerSync,
			FailOpen:   *ledgerFailOpen,
			Logger:     log,
		})
		if err != nil {
			return fmt.Errorf("opening ledger: %w", err)
		}
		defer led.Close()
		st := led.Stats()
		log.Info("leakage ledger open",
			"dir", *ledgerDir,
			"budget_bits", *budgetBits,
			"fail_open", *ledgerFailOpen,
			"replayed_records", st.ReplayedRecords,
			"recovered_pending", st.RecoveredPending,
			"truncated_bytes", st.TruncatedBytes,
			"principals", len(st.Entries),
		)
	}

	svc := serve.New(serve.Options{
		Workers:       *workers,
		QueueDepth:    *queueDepth,
		RetryDegraded: *retryDegraded,
		CacheBytes:    *cacheBytes,
		Ledger:        led,
		ShardName:     *shardName,
		Logger:        log,
	})

	cfg := engine.Config{
		Taint:    taint.Options{Exact: *exact},
		MaxSteps: *maxSteps,
		Budget: engine.Budget{
			MaxOutputBytes: *maxOutputBytes,
			MaxGraphEdges:  *maxGraphEdges,
			SolverWork:     *solverBudget,
		},
	}
	for _, name := range guest.Names() {
		svc.Register(name, guest.Program(name), cfg)
	}
	for _, path := range srcs {
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		prog, err := lang.Compile(path, string(src))
		if err != nil {
			return err
		}
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		svc.Register(name, prog, cfg)
	}

	srv := &http.Server{Addr: *addr, Handler: svc.Handler()}
	errCh := make(chan error, 1)
	go func() {
		log.Info("flowserved listening", "addr", *addr, "programs", len(svc.Programs()))
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	select {
	case err := <-errCh:
		return err
	case <-sigCtx.Done():
	}
	stop()

	// Graceful drain: refuse new work (readyz flips to 503), let the HTTP
	// server finish in-flight requests, then wait out the service's own
	// in-flight count before exiting 0.
	log.Info("signal received; draining")
	svc.StartDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := svc.Drain(ctx); err != nil {
		return err
	}
	log.Info("drained; exiting")
	return nil
}
