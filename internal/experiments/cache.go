package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"flowcheck/internal/engine"
	"flowcheck/internal/stagecache"
)

// ------------------------------------------------ Content-addressed cache ---

// CacheResult measures the staged cache's two serving regimes on one
// program (DESIGN.md "Content-addressed caching"): cold — inputs the
// cache has not seen, so the full pipeline runs; warm — exact repeats,
// answered entirely from the cached result without touching a session.
type CacheResult struct {
	Inputs int // distinct inputs per phase

	Cold time.Duration // phase totals over Inputs runs
	Warm time.Duration

	ColdDisp, WarmDisp string // uniform disposition per phase

	BitsAgree bool    // every cached bound matches an uncached rerun
	HitRatio  float64 // result-kind hit ratio over the warm sweep's cache
	Evictions int64   // result-kind evictions (want 0 at this budget)
}

// cacheStudySource generates a straight-line mixing program: every
// statement is its own code location, so the collapsed graph carries one
// node per statement and a cold run pays for a sizeable Build and Solve.
func cacheStudySource(stmts int) string {
	var b strings.Builder
	b.WriteString("int main() {\n\tchar buf[4];\n\tread_secret(buf, 4);\n\tint acc;\n\tacc = 0;\n")
	for i := 0; i < stmts; i++ {
		fmt.Fprintf(&b, "\tacc = acc ^ (buf[%d] + %d);\n", i%4, i%251)
	}
	b.WriteString("\tputc(acc & 255);\n\treturn 0;\n}\n")
	return b.String()
}

// CacheStudy sweeps n distinct inputs through each regime.
func CacheStudy(n int) CacheResult {
	prog, err := engine.CompileCached("cachestudy.mc", cacheStudySource(1000))
	if err != nil {
		panic(err)
	}
	inputs := make([]engine.Inputs, n)
	for i := range inputs {
		inputs[i] = engine.Inputs{Secret: []byte{byte(i), byte(i >> 8), 0x5A, byte(7 * i)}}
	}
	r := CacheResult{Inputs: n, BitsAgree: true}
	ctx := context.Background()

	sweep := func(cfg engine.Config, ins []engine.Inputs) (time.Duration, string) {
		disp := ""
		t0 := time.Now()
		for _, in := range ins {
			res, err := engine.AnalyzeContext(ctx, prog, in, cfg)
			if err != nil {
				panic(err)
			}
			if disp == "" {
				disp = res.Cache.Disposition
			} else if res.Cache.Disposition != disp {
				panic(fmt.Sprintf("mixed dispositions in one phase: %s vs %s", disp, res.Cache.Disposition))
			}
		}
		return time.Since(t0), disp
	}

	// Cold: inputs the cache has not seen — every run is a miss. Each
	// cached result retains its ~25k-edge graph, so the budget is sized to
	// hold the whole sweep — eviction is measured elsewhere (stagecache
	// tests), not here.
	cache := stagecache.New(stagecache.Options{MaxBytes: 512 << 20})
	cfg := engine.Config{Cache: cache}
	r.Cold, r.ColdDisp = sweep(cfg, inputs)

	// Warm: the same inputs again — full result hits, no pipeline work.
	r.Warm, r.WarmDisp = sweep(cfg, inputs)

	// Cached bounds must match uncached reruns bit for bit.
	for _, in := range inputs {
		cached, err := engine.AnalyzeContext(ctx, prog, in, cfg)
		if err != nil {
			panic(err)
		}
		plain, err := engine.Analyze(prog, in, engine.Config{})
		if err != nil {
			panic(err)
		}
		if cached.Bits != plain.Bits || cached.TaintedOutputBits != plain.TaintedOutputBits ||
			string(cached.Output) != string(plain.Output) {
			r.BitsAgree = false
		}
	}

	st := cache.Stats()
	ks := st.Kinds[engine.KindResult]
	r.HitRatio = ks.HitRatio()
	r.Evictions = ks.Evictions
	return r
}
