// Command flowcoord is the fleet coordinator: it fronts N flowserved
// shards, consistent-hashes programs across them (64 ring points per
// shard, so each shard's session pool, stage cache, and breaker state
// stay hot for its programs), probes shard health, fails over on shard
// errors with capped backoff across up to three replicas, hedges a slow
// request once to the next replica after max(-hedge-after, 3× the
// shard's latency EWMA), and fans batches across the fleet with work
// stealing — merging the per-run graphs into a joint bound that is
// bit-identical to a single-process run, even when a shard dies
// mid-batch. The joint solve runs under the solver budget the shards
// report with their graphs, so only the shards configure it.
//
// Usage:
//
//	flowcoord -shard a=http://127.0.0.1:8091 -shard b=http://127.0.0.1:8092 [-addr :8077]
//	          [-probe-interval 250ms] [-fail-threshold 2] [-hedge-after 50ms] [-batch-workers 4]
//
// Endpoints:
//
//	POST /analyze       route one analysis to the program's shard (same
//	                    JSON as flowserved /analyze, plus X-Flow-Shard)
//	POST /analyzebatch  {"program":"sshauth","runs":[{"secret":"..."},...]}
//	GET  /healthz       coordinator statistics
//	GET  /readyz        200 while admitting and ≥1 shard is routable
//	GET  /statz         the shard table: state, latency, hedges,
//	                    failovers, steal counts, ring spread
//
// On SIGTERM/SIGINT the coordinator stops admitting, finishes in-flight
// requests, and exits 0. Shards drain independently — a draining shard
// refuses before charging any ledger, so the coordinator just routes
// around it.
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
	"strings"
	"syscall"
	"time"

	"flowcheck/internal/fleet"
)

type shardList []fleet.ShardSpec

func (s *shardList) String() string {
	parts := make([]string, len(*s))
	for i, sp := range *s {
		parts[i] = sp.Name + "=" + sp.URL
	}
	return strings.Join(parts, ",")
}

func (s *shardList) Set(v string) error {
	name, url, ok := strings.Cut(v, "=")
	if !ok || name == "" || url == "" {
		return fmt.Errorf("want name=url, got %q", v)
	}
	*s = append(*s, fleet.ShardSpec{Name: name, URL: strings.TrimSuffix(url, "/")})
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "flowcoord:", err)
		os.Exit(1)
	}
}

func run() error {
	fs := flag.NewFlagSet("flowcoord", flag.ExitOnError)
	addr := fs.String("addr", ":8077", "listen address")
	var shards shardList
	fs.Var(&shards, "shard", "shard as name=url (repeatable)")
	probeInterval := fs.Duration("probe-interval", 250*time.Millisecond, "shard health probe cadence")
	failThreshold := fs.Int("fail-threshold", 2, "consecutive failures that mark a shard down")
	hedgeAfter := fs.Duration("hedge-after", 50*time.Millisecond, "floor delay before the one hedge to the next replica")
	batchWorkers := fs.Int("batch-workers", 4, "concurrent batch runs per shard")
	logJSON := fs.Bool("log-json", false, "emit structured logs as JSON instead of text")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	if len(shards) == 0 {
		return fmt.Errorf("at least one -shard name=url is required")
	}

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	log := slog.New(handler)

	coord, err := fleet.New(fleet.Options{
		Shards:               shards,
		ProbeInterval:        *probeInterval,
		FailThreshold:        *failThreshold,
		HedgeAfter:           *hedgeAfter,
		BatchWorkersPerShard: *batchWorkers,
		Logger:               log,
	})
	if err != nil {
		return err
	}
	coord.Start()

	srv := &http.Server{Addr: *addr, Handler: coord.Handler()}
	errCh := make(chan error, 1)
	go func() {
		log.Info("flowcoord listening", "addr", *addr, "shards", len(shards))
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

	log.Info("signal received; draining")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	coord.Close()
	log.Info("drained; exiting")
	return nil
}
