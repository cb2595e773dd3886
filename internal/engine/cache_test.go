package engine

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"flowcheck/internal/fault"
	"flowcheck/internal/guest"
	"flowcheck/internal/lang"
	"flowcheck/internal/stagecache"
	"flowcheck/internal/taint"
	"flowcheck/internal/workload"
)

// straightSrc has input-independent coverage: every secret drives the same
// code path and the same number of outputs.
const straightSrc = `
int main() {
    char buf[4];
    read_secret(buf, 4);
    putc(buf[0] ^ buf[1]);
    putc(buf[2] + buf[3]);
    return 0;
}
`

func testCache() *stagecache.Cache {
	return stagecache.New(stagecache.Options{MaxBytes: 8 << 20})
}

func sameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got.Bits != want.Bits {
		t.Errorf("%s: Bits = %d, want %d", label, got.Bits, want.Bits)
	}
	if got.TaintedOutputBits != want.TaintedOutputBits {
		t.Errorf("%s: TaintedOutputBits = %d, want %d", label, got.TaintedOutputBits, want.TaintedOutputBits)
	}
	if string(got.Output) != string(want.Output) {
		t.Errorf("%s: Output = %q, want %q", label, got.Output, want.Output)
	}
	if got.ExitCode != want.ExitCode {
		t.Errorf("%s: ExitCode = %d, want %d", label, got.ExitCode, want.ExitCode)
	}
	if got.Steps != want.Steps {
		t.Errorf("%s: Steps = %d, want %d", label, got.Steps, want.Steps)
	}
	if (got.Trap == nil) != (want.Trap == nil) {
		t.Errorf("%s: Trap = %v, want %v", label, got.Trap, want.Trap)
	}
	if got.Degraded != want.Degraded {
		t.Errorf("%s: Degraded = %v, want %v", label, got.Degraded, want.Degraded)
	}
	if got.Rung != want.Rung || got.Executed != want.Executed {
		t.Errorf("%s: Rung, Executed = %q, %v, want %q, %v", label, got.Rung, got.Executed, want.Rung, want.Executed)
	}
	if got.CutString() != want.CutString() {
		t.Errorf("%s: CutString = %q, want %q", label, got.CutString(), want.CutString())
	}
	if !reflect.DeepEqual(got.DescribeCut(), want.DescribeCut()) {
		t.Errorf("%s: DescribeCut = %v, want %v", label, got.DescribeCut(), want.DescribeCut())
	}
	if !reflect.DeepEqual(got.CutSites(), want.CutSites()) {
		t.Errorf("%s: CutSites = %v, want %v", label, got.CutSites(), want.CutSites())
	}
	if len(got.Warnings) != len(want.Warnings) {
		t.Errorf("%s: %d warnings, want %d", label, len(got.Warnings), len(want.Warnings))
	}
}

// TestCachedBitIdenticalAllGuests runs every guest in both construction
// modes and demands that cached results — the stored miss and the
// subsequent hit — are bit-identical to an uncached analyzer's, cut
// renderings included. The miss keeps its graph; the hit has none.
func TestCachedBitIdenticalAllGuests(t *testing.T) {
	for _, name := range guest.Names() {
		secret, public, ok := guest.SampleInputs(name)
		if !ok {
			t.Fatalf("no sample inputs for guest %q", name)
		}
		in := Inputs{Secret: secret, Public: public}
		prog := guest.Program(name)
		for _, exact := range []bool{false, true} {
			mode := "collapsed"
			if exact {
				mode = "exact"
			}
			label := name + "/" + mode
			cfg := Config{Taint: taint.Options{Exact: exact}}
			want, err := New(prog, cfg).Analyze(in)
			if err != nil {
				t.Fatalf("%s: uncached: %v", label, err)
			}

			// Exact-mode graphs for the bigger guests run to several MiB,
			// so give the corpus test a serving-sized budget (a too-small
			// cache self-evicts oversized entries, which is its own test).
			cfg.Cache = stagecache.New(stagecache.Options{MaxBytes: 256 << 20})
			cached := New(prog, cfg)
			miss, err := cached.Analyze(in)
			if err != nil {
				t.Fatalf("%s: cached cold: %v", label, err)
			}
			if miss.Cache.Disposition != CacheMiss {
				t.Errorf("%s: cold disposition = %q, want %q", label, miss.Cache.Disposition, CacheMiss)
			}
			sameResult(t, label+" cold", want, miss)

			hit, err := cached.Analyze(in)
			if err != nil {
				t.Fatalf("%s: cached warm: %v", label, err)
			}
			if hit.Cache.Disposition != CacheHit {
				t.Errorf("%s: warm disposition = %q, want %q", label, hit.Cache.Disposition, CacheHit)
			}
			sameResult(t, label+" warm", want, hit)
			if miss.Graph == nil || miss.Cut == nil || hit.Graph != nil || hit.Cut != nil {
				t.Errorf("%s: miss graph, cut = %v, %v; hit graph, cut = %v, %v; want the miss's only",
					label, miss.Graph != nil, miss.Cut != nil, hit.Graph != nil, hit.Cut != nil)
			}
		}
	}
}

// TestFullHitSkipsPipeline is the acceptance criterion for warm requests:
// a full hit does no stage work and draws no session — StageStats shows
// only the lookup.
func TestFullHitSkipsPipeline(t *testing.T) {
	prog, err := lang.Compile("straight.mc", straightSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Cache: testCache()}
	a := New(prog, cfg)
	in := Inputs{Secret: []byte{1, 2, 3, 4}}
	if _, err := a.Analyze(in); err != nil {
		t.Fatal(err)
	}
	createdCold := a.Pool().Created

	res, err := a.Analyze(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache.Disposition != CacheHit {
		t.Fatalf("disposition = %q, want %q", res.Cache.Disposition, CacheHit)
	}
	st := res.Stages
	if st.Work() != 0 {
		t.Fatalf("warm hit did stage work: %+v", st)
	}
	if st.Execute != 0 || st.Build != 0 || st.Solve != 0 || st.Report != 0 {
		t.Fatalf("warm hit ran stages: %+v", st)
	}
	if st.Lookup <= 0 || st.Total != st.Lookup {
		t.Fatalf("warm hit should account only the lookup, got %+v", st)
	}
	if got := a.Pool().Created; got != createdCold {
		t.Fatalf("warm hit built %d new sessions", got-createdCold)
	}
	if res.Cache.Key == "" {
		t.Fatalf("hit carries no key")
	}
}

// A class request served from the cache reports this call's lookup, not
// the stages of the execution that filled the cache. Both a repeated class
// set and a new class set over the same inputs hit the class graph and
// re-solve their views without executing.
func TestClassHitReportsLookupStages(t *testing.T) {
	prog, err := lang.Compile("straight.mc", straightSrc)
	if err != nil {
		t.Fatal(err)
	}
	a := New(prog, Config{Cache: testCache()})
	in := Inputs{Secret: []byte{1, 2, 3, 4}}
	halves := []SecretClass{{Name: "lo", Off: 0, Len: 2}, {Name: "hi", Off: 2, Len: 2}}
	cold, err := a.AnalyzeClassSet(in, halves)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Executions != 1 || cold.Joint.Stages.Execute == 0 {
		t.Fatalf("cold class set: executions=%d stages=%+v", cold.Executions, cold.Joint.Stages)
	}
	for _, tc := range []struct {
		name    string
		classes []SecretClass
	}{
		{"repeated class set", halves},
		{"new class set", []SecretClass{{Name: "all", Off: 0, Len: 4}}},
	} {
		ca, err := a.AnalyzeClassSet(in, tc.classes)
		if err != nil {
			t.Fatal(err)
		}
		if ca.Executions != 0 {
			t.Errorf("%s: executions = %d, want 0", tc.name, ca.Executions)
		}
		st := ca.Joint.Stages
		if st.Execute != 0 || st.Build != 0 || st.Solve != 0 || st.Report != 0 || st.Total != st.Lookup {
			t.Errorf("%s: joint stages %+v, want the lookup only", tc.name, st)
		}
		if ca.Joint.Cache.Disposition != CacheHit {
			t.Errorf("%s: joint disposition = %q, want %q", tc.name, ca.Joint.Cache.Disposition, CacheHit)
		}
		if ca.Joint.Bits != cold.Joint.Bits {
			t.Errorf("%s: joint bits = %d, want %d", tc.name, ca.Joint.Bits, cold.Joint.Bits)
		}
	}
	// Stamping a hit must not touch the shared cached value.
	if cold.Joint.Stages.Execute == 0 {
		t.Fatal("cached joint result lost its execution stages")
	}
}

// TestInputOnlyChangeIncremental covers warm programs with fresh inputs:
// the result misses and the pipeline runs again, but the program's static
// analysis is reused rather than recomputed.
func TestInputOnlyChangeIncremental(t *testing.T) {
	prog, err := lang.Compile("straight2.mc", straightSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Cache: testCache(), Lint: true}
	a := New(prog, cfg)

	cold, err := a.Analyze(Inputs{Secret: []byte{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cache.Disposition != CacheMiss {
		t.Fatalf("cold disposition = %q, want %q", cold.Cache.Disposition, CacheMiss)
	}

	in2 := Inputs{Secret: []byte{9, 8, 7, 6}}
	warm, err := a.Analyze(in2)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cache.Disposition != CacheMiss {
		t.Fatalf("input-only change disposition = %q, want %q", warm.Cache.Disposition, CacheMiss)
	}
	if !warm.Cache.StaticHit {
		t.Fatalf("input-only change did not reuse the static analysis")
	}
	if warm.Stages.Static != 0 {
		t.Fatalf("input-only change recharged the static pass: %v", warm.Stages.Static)
	}
	if warm.Stages.Execute == 0 {
		t.Fatalf("input-only change skipped Execute; it must re-run it")
	}

	// The warm miss must be bit-identical to an uncached analysis of the
	// same input.
	want, err := New(prog, Config{Lint: true}).Analyze(in2)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "input-only change", want, warm)
}

// TestGlobalStaticSharedAcrossEngines is the satellite regression test:
// identical programs analyzed by different engines share one static
// analysis, so the Static stage cost is charged exactly once fleet-wide.
func TestGlobalStaticSharedAcrossEngines(t *testing.T) {
	// A file name no other run has used keeps earlier global-cache entries
	// from absorbing the first-charge assertion.
	name := UnseenName("shared_static")
	p1, err := lang.Compile(name, straightSrc)
	if err != nil {
		t.Fatal(err)
	}
	// A second, separately compiled (pointer-distinct) copy of the same
	// program: content addressing must identify them.
	p2, err := lang.Compile(name, straightSrc)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("want pointer-distinct programs")
	}

	cfg := Config{Lint: true}
	a1, a2 := New(p1, cfg), New(p2, cfg)
	in := Inputs{Secret: []byte{1, 2, 3, 4}}

	r1, err := a1.Analyze(in)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cache.StaticHit {
		t.Fatalf("first engine's first run claims a static hit; it should have paid for the pass")
	}
	if r1.Stages.Static == 0 {
		t.Fatalf("first run charged no Static time")
	}

	r2, err := a2.Analyze(in)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cache.StaticHit {
		t.Fatalf("second engine recomputed the static analysis")
	}
	if r2.Stages.Static != 0 {
		t.Fatalf("second engine charged Static time %v; the pass is already paid for", r2.Stages.Static)
	}
	if a1.Static() != a2.Static() {
		t.Fatalf("engines hold different static analyses for one program")
	}
}

// TestResultEvictionTinyBudget drives a cache too small for its working
// set and checks that eviction happens, stats add up, and results stay
// correct throughout.
func TestResultEvictionTinyBudget(t *testing.T) {
	prog, err := lang.Compile("straight3.mc", straightSrc)
	if err != nil {
		t.Fatal(err)
	}
	cache := stagecache.New(stagecache.Options{MaxBytes: 4096, Shards: 1})
	a := New(prog, Config{Cache: cache})
	want, err := New(prog, Config{}).Analyze(Inputs{Secret: []byte{0, 0, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 16; i++ {
			res, err := a.Analyze(Inputs{Secret: []byte{byte(i), 0, 0, 0}})
			if err != nil {
				t.Fatal(err)
			}
			if res.Bits != want.Bits {
				t.Fatalf("round %d input %d: Bits = %d, want %d", round, i, res.Bits, want.Bits)
			}
		}
	}
	st := cache.Stats()
	if st.Bytes > st.MaxBytes {
		t.Fatalf("cache over budget: %d > %d", st.Bytes, st.MaxBytes)
	}
	rs := st.Kinds[KindResult]
	if rs.Evictions == 0 {
		t.Fatalf("no evictions under a 4 KiB budget for 16 results: %+v", rs)
	}
	if rs.Misses == 0 || rs.Stores == 0 {
		t.Fatalf("implausible stats: %+v", rs)
	}
}

// TestResultSingleflight hammers one (program, config, input) key from
// many goroutines through a cold cache; the singleflight must collapse
// them onto one pipeline computation. Meant for -race.
func TestResultSingleflight(t *testing.T) {
	prog, err := lang.Compile("straight4.mc", straightSrc)
	if err != nil {
		t.Fatal(err)
	}
	cache := testCache()
	a := New(prog, Config{Cache: cache})
	in := Inputs{Secret: []byte{5, 5, 5, 5}}

	const goroutines = 32
	gate := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]*Result, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			res, err := a.Analyze(in)
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	close(gate)
	wg.Wait()

	ks := cache.Stats().Kinds[KindResult]
	if ks.Misses != 1 {
		t.Fatalf("pipeline ran %d times for one key; singleflight should collapse to 1", ks.Misses)
	}
	if ks.Hits+ks.Coalesced != goroutines-1 {
		t.Fatalf("hits+coalesced = %d, want %d", ks.Hits+ks.Coalesced, goroutines-1)
	}
	for i, res := range results {
		if res == nil {
			continue // error already reported
		}
		if res.Bits != results[0].Bits {
			t.Fatalf("goroutine %d saw Bits=%d, goroutine 0 saw %d", i, res.Bits, results[0].Bits)
		}
	}
}

// TestFaultPlanBypassesCache: injected nondeterminism must never be
// cached or served from the cache.
func TestFaultPlanBypassesCache(t *testing.T) {
	prog, err := lang.Compile("straight5.mc", straightSrc)
	if err != nil {
		t.Fatal(err)
	}
	cache := testCache()
	in := Inputs{Secret: []byte{1, 1, 1, 1}}
	// Warm the cache without faults under the same config-sans-fault key
	// space, then confirm a faulted analyzer does not read it.
	if _, err := New(prog, Config{Cache: cache}).Analyze(in); err != nil {
		t.Fatal(err)
	}
	faulted := New(prog, Config{Cache: cache, Fault: fault.NewPlan()})
	res, err := faulted.Analyze(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache.Disposition != CacheBypass {
		t.Fatalf("faulted disposition = %q, want %q", res.Cache.Disposition, CacheBypass)
	}
	if res.Stages.Execute == 0 {
		t.Fatalf("faulted run did not execute; it must bypass the cache")
	}
}

// TestCachedProbe covers the service fast path helper.
func TestCachedProbe(t *testing.T) {
	prog, err := lang.Compile("straight6.mc", straightSrc)
	if err != nil {
		t.Fatal(err)
	}
	a := New(prog, Config{Cache: testCache()})
	in := Inputs{Secret: []byte{2, 4, 6, 8}}
	if _, ok := a.Cached(in); ok {
		t.Fatal("probe hit a cold cache")
	}
	want, err := a.Analyze(in)
	if err != nil {
		t.Fatal(err)
	}
	res, ok := a.Cached(in)
	if !ok {
		t.Fatal("probe missed a warm cache")
	}
	if res.Cache.Disposition != CacheHit {
		t.Fatalf("probe disposition = %q, want %q", res.Cache.Disposition, CacheHit)
	}
	if res.Bits != want.Bits {
		t.Fatalf("probe Bits = %d, want %d", res.Bits, want.Bits)
	}
	if res.Stages.Work() != 0 {
		t.Fatalf("probe did stage work: %+v", res.Stages)
	}
}

// TestCompileCached: identical source yields the shared compiled program.
func TestCompileCached(t *testing.T) {
	src := straightSrc + "// compile-cached\n"
	p1, err := CompileCached("cc.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := CompileCached("cc.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("recompiling identical source did not return the cached program")
	}
	if _, err := CompileCached("cc.mc", "int main( {"); err == nil {
		t.Fatal("compile error was swallowed")
	}
}

// raceEnabled is set under -race (race_test.go). The heap-size tests skip
// there: they measure sizes, not synchronization, and run ~15× slower.
var raceEnabled bool

// liveHeap is the heap that survives a collection. Two cycles empty the
// session pools, whose victim cache outlives one.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// storeAnswers runs n distinct inputs derived from in (one secret byte
// varied) through a's cache after two warm-up runs, and returns the heap
// the new entries retain and what the cache charged for them.
func storeAnswers(t *testing.T, a *Analyzer, in Inputs, n int) (heap, charged int64) {
	t.Helper()
	vary := func(i int) Inputs {
		s := bytes.Clone(in.Secret)
		s[i%len(s)] ^= byte(1 + i/len(s))
		return Inputs{Secret: s, Public: append([]byte{byte(i)}, in.Public...)}
	}
	for i := 0; i < 2; i++ {
		if _, err := a.Analyze(vary(n + i)); err != nil {
			t.Fatal(err)
		}
	}
	bytes0 := a.cfg.Cache.Stats().Kinds[KindResult].Bytes
	h0 := liveHeap()
	for i := 0; i < n; i++ {
		if _, err := a.Analyze(vary(i)); err != nil {
			t.Fatal(err)
		}
	}
	heap = liveHeap() - h0
	charged = a.cfg.Cache.Stats().Kinds[KindResult].Bytes - bytes0
	return heap, charged
}

// TestAnswerPriceMatchesHeap checks the result cache's price of an answer
// against the heap a stored answer really retains, within 25%, so the
// byte budget bounds the memory the cache holds.
func TestAnswerPriceMatchesHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("measures heap sizes; slow under -race")
	}
	for _, name := range []string{"count_punct", "sshauth", "calendar", "xserver", "battleship", "imagefilter", "unary"} {
		secret, public, _ := guest.SampleInputs(name)
		a := New(guest.Program(name), Config{Cache: stagecache.New(stagecache.Options{MaxBytes: 64 << 20})})
		const n = 128
		heap, charged := storeAnswers(t, a, Inputs{Secret: secret, Public: public}, n)
		t.Logf("%s: %d B retained, %d B charged per answer", name, heap/n, charged/n)
		if ratio := float64(charged) / float64(heap); ratio < 0.75 || ratio > 1.25 {
			t.Errorf("%s: charged %d B per answer for %d B retained (ratio %.2f, want 0.75–1.25)", name, charged/n, heap/n, ratio)
		}
	}
}

// An exact 1 KiB compress run builds a graph of over 200k edges; its
// cached answer keeps the output and a one-term cut, not the graph.
func TestExactCompressAnswerSmall(t *testing.T) {
	if raceEnabled {
		t.Skip("measures heap sizes; slow under -race")
	}
	a := New(guest.Program("compress"), Config{Taint: taint.Options{Exact: true}, Cache: stagecache.New(stagecache.Options{MaxBytes: 64 << 20})})
	in := Inputs{Secret: workload.PiWords(1024)}
	res, err := a.Analyze(in)
	if err != nil {
		t.Fatal(err)
	}
	if edges := res.Graph.NumEdges(); edges < 200_000 {
		t.Fatalf("exact 1 KiB compress graph has %d edges, want over 200k", edges)
	}
	res = nil
	const n = 8
	heap, _ := storeAnswers(t, a, in, n)
	t.Logf("exact 1 KiB compress: %d B retained per answer", heap/n)
	if heap/n >= 4096 {
		t.Fatalf("exact 1 KiB compress answer retains %d B, want under 4 KiB", heap/n)
	}
}
