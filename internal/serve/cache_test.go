package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"flowcheck/internal/engine"
	"flowcheck/internal/guest"
	"flowcheck/internal/serve"
)

func newCachedService(t *testing.T) *serve.Service {
	t.Helper()
	svc := serve.New(serve.Options{CacheBytes: 32 << 20})
	svc.Register("unary", guest.Program("unary"), engine.Config{})
	return svc
}

// TestCacheFastPath: a repeat request is answered before admission — zero
// attempts, the admitted/completed ledger untouched, fast-path counter up.
func TestCacheFastPath(t *testing.T) {
	svc := newCachedService(t)
	cold, err := svc.Analyze(context.Background(), req(42))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Result.Cache.Disposition != engine.CacheMiss {
		t.Fatalf("cold disposition = %q, want %q", cold.Result.Cache.Disposition, engine.CacheMiss)
	}
	ledger := svc.Stats()

	warm, err := svc.Analyze(context.Background(), req(42))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Attempts != 0 {
		t.Fatalf("warm attempts = %d, want 0 (never admitted)", warm.Attempts)
	}
	if warm.Result.Cache.Disposition != engine.CacheHit {
		t.Fatalf("warm disposition = %q, want %q", warm.Result.Cache.Disposition, engine.CacheHit)
	}
	if warm.Result.Bits != cold.Result.Bits {
		t.Fatalf("warm bits %d != cold bits %d", warm.Result.Bits, cold.Result.Bits)
	}
	st := svc.Stats()
	if st.CacheFastPath != 1 {
		t.Fatalf("fast-path counter = %d, want 1", st.CacheFastPath)
	}
	if st.Admitted != ledger.Admitted || st.Completed != ledger.Completed || st.Started != ledger.Started {
		t.Fatalf("fast path moved the admission ledger: before %+v after %+v", ledger, st)
	}
	if st.Cache == nil {
		t.Fatal("Stats.Cache is nil with caching enabled")
	}
	if ks := st.Cache.Kinds[engine.KindResult]; ks.Hits == 0 {
		t.Fatalf("no result hits recorded: %+v", st.Cache.Kinds)
	}
}

// TestCacheBudgetOverrideTakesSlowPath: a budget override keys a
// different config, so it must not be served from the warm default-config
// entry.
func TestCacheBudgetOverrideTakesSlowPath(t *testing.T) {
	svc := newCachedService(t)
	if _, err := svc.Analyze(context.Background(), req(42)); err != nil {
		t.Fatal(err)
	}
	r := req(42)
	r.Budget = &engine.Budget{SolverWork: 1 << 40}
	resp, err := svc.Analyze(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Attempts == 0 {
		t.Fatal("budget-override request took the fast path")
	}
	if svc.Stats().CacheFastPath != 0 {
		t.Fatal("fast-path counter moved for a budget override")
	}
}

// TestCacheDrainingRefusesFastPath: once draining, even warm requests are
// refused — the drain contract beats the cache.
func TestCacheDrainingRefusesFastPath(t *testing.T) {
	svc := newCachedService(t)
	if _, err := svc.Analyze(context.Background(), req(42)); err != nil {
		t.Fatal(err)
	}
	svc.StartDrain()
	if _, err := svc.Analyze(context.Background(), req(42)); err == nil {
		t.Fatal("draining service served a warm request")
	}
}

// TestCacheDisabledByDefault: without CacheBytes the service behaves like
// the seed — no disposition, no fast path, nil cache stats.
func TestCacheDisabledByDefault(t *testing.T) {
	svc := newService(t, serve.Options{})
	for i := 0; i < 2; i++ {
		resp, err := svc.Analyze(context.Background(), req(42))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Result.Cache.Disposition != "" {
			t.Fatalf("disposition = %q with caching disabled", resp.Result.Cache.Disposition)
		}
		if resp.Attempts != 1 {
			t.Fatalf("attempts = %d, want 1", resp.Attempts)
		}
	}
	st := svc.Stats()
	if st.Cache != nil || st.CacheFastPath != 0 {
		t.Fatalf("cache stats present with caching disabled: %+v", st)
	}
}

// TestHTTPCacheDisposition: the JSON field and X-Flow-Cache header carry
// the disposition, and /statz reports counters and hit ratios.
func TestHTTPCacheDisposition(t *testing.T) {
	svc := newCachedService(t)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	post := func() (string, string) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/analyze", "application/json",
			strings.NewReader(`{"program":"unary","secret":"A"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Cache string `json:"cache"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body.Cache, resp.Header.Get("X-Flow-Cache")
	}

	if field, hdr := post(); field != "miss" || hdr != "miss" {
		t.Fatalf("cold request: cache field %q, header %q; want miss/miss", field, hdr)
	}
	if field, hdr := post(); field != "hit" || hdr != "hit" {
		t.Fatalf("warm request: cache field %q, header %q; want hit/hit", field, hdr)
	}

	sresp, err := ts.Client().Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var statz struct {
		CacheEnabled  bool  `json:"cache_enabled"`
		CacheFastPath int64 `json:"cache_fast_path"`
		Cache         *struct {
			Bytes int64 `json:"bytes"`
			Kinds map[string]struct {
				Hits   int64 `json:"hits"`
				Misses int64 `json:"misses"`
			} `json:"kinds"`
			HitRatios map[string]float64 `json:"hit_ratios"`
		} `json:"cache"`
		GlobalCache struct {
			Kinds map[string]json.RawMessage `json:"kinds"`
		} `json:"global_cache"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&statz); err != nil {
		t.Fatal(err)
	}
	if !statz.CacheEnabled {
		t.Fatal("/statz says caching is disabled")
	}
	if statz.CacheFastPath != 1 {
		t.Fatalf("/statz fast path = %d, want 1", statz.CacheFastPath)
	}
	if statz.Cache == nil || statz.Cache.Bytes <= 0 {
		t.Fatalf("/statz cache bytes missing: %+v", statz.Cache)
	}
	rk := statz.Cache.Kinds["result"]
	if rk.Hits != 1 || rk.Misses != 1 {
		t.Fatalf("/statz result kind = %+v, want 1 hit / 1 miss", rk)
	}
	if ratio := statz.Cache.HitRatios["result"]; ratio != 0.5 {
		t.Fatalf("/statz result hit ratio = %v, want 0.5", ratio)
	}
}

// A hit answers the miss's bits and cut, and an include_graph request for
// the same input runs past the cache ("bypass") and carries the graph,
// leaving the cache's counters as they were.
func TestHTTPIncludeGraphBypassesCache(t *testing.T) {
	svc := newCachedService(t)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	post := func(body string) serve.AnalyzeResponse {
		t.Helper()
		resp, raw := postAnalyze(t, ts, body)
		var out serve.AnalyzeResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		if hdr := resp.Header.Get("X-Flow-Cache"); hdr != out.Cache {
			t.Fatalf("X-Flow-Cache %q, body cache %q", hdr, out.Cache)
		}
		return out
	}
	miss := post(`{"program":"unary","secret":"A"}`)
	hit := post(`{"program":"unary","secret":"A"}`)
	if miss.Cache != "miss" || hit.Cache != "hit" || hit.Bits != miss.Bits || hit.Cut != miss.Cut || miss.Cut == "" {
		t.Fatalf("miss %q %d bits cut %q; hit %q %d bits cut %q", miss.Cache, miss.Bits, miss.Cut, hit.Cache, hit.Bits, hit.Cut)
	}
	before := svc.Stats().Cache.Kinds[engine.KindResult]
	graph := post(`{"program":"unary","secret":"A","include_graph":true}`)
	if graph.Cache != engine.CacheBypass || graph.Graph == nil || graph.Graph.Edges == 0 || graph.Bits != miss.Bits || graph.Cut != miss.Cut {
		t.Fatalf("include_graph: cache %q, graph %+v, %d bits, cut %q; want a bypass with a graph and the miss's answer", graph.Cache, graph.Graph, graph.Bits, graph.Cut)
	}
	if g, err := graph.Graph.Decode(); err != nil || g.NumEdges() != graph.Graph.Edges {
		t.Fatalf("include_graph graph does not decode: %v", err)
	}
	if after := svc.Stats().Cache.Kinds[engine.KindResult]; after != before {
		t.Fatalf("include_graph touched the result cache: %+v, then %+v", before, after)
	}
}

// TestServiceCacheSoak hammers a cached service from many goroutines over
// a small input space and checks the ledgers stay consistent: every
// request is either fast-pathed or admitted, the cache stays within
// budget, and warm traffic converges onto the cache. Short-friendly: CI's
// service-smoke job runs it with -short.
func TestServiceCacheSoak(t *testing.T) {
	svc := serve.New(serve.Options{CacheBytes: 16 << 20, Workers: 4, QueueDepth: 64})
	for _, name := range []string{"unary", "sshauth"} {
		svc.Register(name, guest.Program(name), engine.Config{})
	}
	goroutines, perG := 8, 60
	if testing.Short() {
		goroutines, perG = 4, 25
	}
	var wg sync.WaitGroup
	var failures sync.Map
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				name := "unary"
				if (g+i)%2 == 0 {
					name = "sshauth"
				}
				secret := []byte{byte(i % 8)}
				if name == "sshauth" {
					secret = []byte(fmt.Sprintf("%08d", i%8))
				}
				_, err := svc.Analyze(context.Background(), serve.Request{
					Program: name,
					Inputs:  engine.Inputs{Secret: secret},
				})
				if err != nil && !errors.Is(err, serve.ErrOverload) {
					// Shedding under deliberate overdrive is correct
					// behavior and stays in the ledger; anything else fails.
					failures.Store(fmt.Sprintf("g%d/i%d", g, i), err)
				}
			}
		}(g)
	}
	wg.Wait()
	failures.Range(func(k, v any) bool {
		t.Errorf("%s: %v", k, v)
		return true
	})

	st := svc.Stats()
	total := int64(goroutines * perG)
	if st.CacheFastPath+st.Admitted+st.Shed != total {
		t.Fatalf("request ledger: fast-path %d + admitted %d + shed %d != total %d",
			st.CacheFastPath, st.Admitted, st.Shed, total)
	}
	if st.Admitted != st.Completed+st.Failed {
		t.Fatalf("admission ledger: admitted %d != completed %d + failed %d", st.Admitted, st.Completed, st.Failed)
	}
	if st.CacheFastPath == 0 {
		t.Fatal("soak over 16 inputs never took the fast path")
	}
	if st.Cache == nil {
		t.Fatal("cache stats missing")
	}
	if st.Cache.Bytes > st.Cache.MaxBytes {
		t.Fatalf("cache over budget: %d > %d", st.Cache.Bytes, st.Cache.MaxBytes)
	}
	ks := st.Cache.Kinds[engine.KindResult]
	if ks.Hits+ks.Coalesced == 0 {
		t.Fatalf("soak recorded no result cache reuse: %+v", ks)
	}
}
