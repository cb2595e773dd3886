package serve_test

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"flowcheck/internal/engine"
	"flowcheck/internal/guest"
	"flowcheck/internal/serve"
)

// countPunct registers count_punct (no cache) and returns its sample
// request. At threshold 64 an adaptive request on these inputs escalates:
// both cheap bounds are 592 bits.
func countPunct(t *testing.T, opts serve.Options) (*serve.Service, serve.Request) {
	t.Helper()
	secret, public, _ := guest.SampleInputs("count_punct")
	svc := serve.New(opts)
	svc.Register("count_punct", guest.Program("count_punct"), engine.Config{})
	return svc, serve.Request{Program: "count_punct", Inputs: engine.Inputs{Secret: secret, Public: public}}
}

// grown is the budget a request's last attempt ran under: every cap
// doubled once per retry.
func grown(b engine.Budget, attempts int) engine.Budget {
	k := 1 << (attempts - 1)
	b.MaxGraphEdges *= k
	b.SolverWork *= int64(k)
	return b
}

// Overrides, adaptive escalations and both kinds of retry run concurrently
// on the program's one session pool, and each answers what a fresh
// analysis under that request's effective configuration answers.
func TestSharedPoolConcurrentRequests(t *testing.T) {
	svc, plain := countPunct(t, serve.Options{Workers: 2, QueueDepth: 64, RetryDegraded: true, CacheBytes: 1 << 20})
	adaptive := plain
	adaptive.Precision, adaptive.AdaptiveThreshold = "adaptive", 64
	override := plain
	override.Budget = &engine.Budget{SolverWork: 1 << 20}
	growth := plain // 221 edges: over the cap, under it doubled
	growth.Budget = &engine.Budget{MaxGraphEdges: 120}
	degraded := plain // an exact solve needs 377 work units
	degraded.Budget = &engine.Budget{SolverWork: 200}
	reqs := []serve.Request{plain, adaptive, override, growth, degraded}

	want := func(r serve.Request, attempts int) *engine.Result {
		var cfg engine.Config
		if r.Budget != nil {
			cfg.Budget = grown(*r.Budget, attempts)
		}
		if r.Precision != "" {
			cfg.Precision, _ = engine.ParsePrecision(r.Precision)
			cfg.AdaptiveThreshold = r.AdaptiveThreshold
		}
		res, err := engine.Analyze(guest.Program("count_punct"), r.Inputs, cfg)
		if err != nil {
			t.Error(err)
			return &engine.Result{}
		}
		return res
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				kind := (g + i) % len(reqs)
				resp, err := svc.Analyze(context.Background(), reqs[kind])
				if err != nil {
					t.Errorf("request kind %d: %v", kind, err)
					return
				}
				if kind >= 3 && resp.Attempts < 2 {
					t.Errorf("request kind %d answered without a retry", kind)
				}
				w, got := want(reqs[kind], resp.Attempts), resp.Result
				if got.Bits != w.Bits || got.Rung != w.Rung || got.Degraded != w.Degraded {
					t.Errorf("request kind %d after %d attempts: bits/rung/degraded %d/%s/%v, fresh analysis %d/%s/%v",
						kind, resp.Attempts, got.Bits, got.Rung, got.Degraded, w.Bits, w.Rung, w.Degraded)
				}
			}
		}(g)
	}
	wg.Wait()
	if live := svc.Stats().Programs[0].Pool.Live; live != 0 {
		t.Fatalf("%d sessions still checked out", live)
	}
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// An override or an adaptive escalation runs on the program's warmed
// sessions, so it allocates about what the same plain request does. An
// analyzer built per request would pay for a fresh guest machine and
// tracker each time: about 9× the plain request's bytes for the adaptive
// one.
func TestOverrideAllocatesAsPlain(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops pooled sessions at random")
	}
	svc, plain := countPunct(t, serve.Options{Workers: 1})
	adaptive := plain
	adaptive.Precision, adaptive.AdaptiveThreshold = "adaptive", 64
	override := plain
	override.Budget = &engine.Budget{SolverWork: 1 << 20}

	serveOne := func(r serve.Request) {
		resp, err := svc.Analyze(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Result.Rung != engine.RungFull {
			t.Fatalf("rung %q, want an escalated full solve", resp.Result.Rung)
		}
	}
	// With the collector off no GC can empty the session pool mid-measure.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	bytesPerRequest := func(r serve.Request) uint64 {
		for i := 0; i < 20; i++ {
			serveOne(r)
		}
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			serveOne(r)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	base := bytesPerRequest(plain)
	for name, r := range map[string]serve.Request{"adaptive": adaptive, "budget override": override} {
		got := bytesPerRequest(r)
		t.Logf("%s: %d B/request, plain %d", name, got, base)
		if float64(got) > 1.25*float64(base) {
			t.Errorf("%s request allocates %d B, over 1.25× the plain request's %d B: is it served on fresh sessions?", name, got, base)
		}
	}
}
