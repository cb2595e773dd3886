package engine

// Content-addressed caching for the staged pipeline. Each stage consults
// the cache at its boundary under a key derived from exactly the inputs
// that determine its output:
//
//	compile   source/v1(filename, src)           -> *vm.Program   (global)
//	static    static/v1(program)                 -> *static.Analysis (global)
//	result    result/v1(program, config, inputs) -> *Result
//
// Compile and static results depend only on the program, so they live in
// one process-global cache shared by every Analyzer — the fix for the old
// per-engine lint cache, where N engines analyzing the same program paid
// the static pass N times. Result entries go to the cache the caller
// configures (Config.Cache), which the service shares fleet-wide.
//
// A full result hit skips the whole pipeline: no session is drawn, no
// stage runs, StageStats records only the lookup. An input-only change
// misses the result key (disposition "miss") and runs the pipeline, but
// still reuses the program's static analysis.
//
// Cached values are shared across goroutines and must never be mutated;
// hits return a shallow copy of the Result with fresh Stages/Cache fields
// so provenance stamping cannot race. Fault-injection plans make runs
// deliberately nondeterministic, so a non-nil Config.Fault bypasses the
// result cache entirely (disposition "bypass").

import (
	"time"
	"unsafe"

	"flowcheck/internal/cachekey"
	"flowcheck/internal/flowgraph"
	"flowcheck/internal/lang"
	"flowcheck/internal/stagecache"
	"flowcheck/internal/static"
	"flowcheck/internal/taint"
	"flowcheck/internal/vm"
)

// Cache kinds, used for per-stage stat breakdowns.
const (
	KindCompile = "compile"
	KindStatic  = "static"
	KindResult  = "result"
	// KindSkeleton names a cache kind under which nothing is stored any
	// more; it is kept for readers of per-kind stats that still ask for it.
	KindSkeleton = "skeleton"
	// KindClassGraph holds the shared attributed graph + CSR of a class
	// analysis, keyed by (program, config, inputs): every class request
	// over those inputs re-solves its views on it without re-executing.
	KindClassGraph = "classgraph"
)

// Cache dispositions reported in Result.Cache and service responses.
const (
	// CacheBypass: a cache was configured but this run was not cacheable
	// (fault injection active).
	CacheBypass = "bypass"
	// CacheMiss: the full pipeline ran and the result was stored.
	CacheMiss = "miss"
	// CacheHit: the result came straight from the cache; no session was
	// touched and no stage ran.
	CacheHit = "hit"
)

// CacheTrace records a result's cache provenance.
type CacheTrace struct {
	// Disposition is "", CacheBypass, CacheMiss, or CacheHit. Empty means no cache was configured or the result
	// came from a multi-run entry point (which does not result-cache).
	Disposition string
	// BypassReason says why a CacheBypass happened ("fault-injection");
	// empty for every other disposition. Surfaced so operators can tell a
	// deliberately cold service from a broken cache.
	BypassReason string
	// StaticHit reports that the static pre-pass was served from the
	// global program cache rather than computed by this run.
	StaticHit bool
	// Key is the abbreviated result key, for log correlation.
	Key string
}

// globalCache holds the program-keyed stages (compile, static) shared by
// every Analyzer in the process. It is intentionally separate from the
// caller-provided result cache: program-derived artifacts are small, hot,
// and correct to share even between callers that want isolated result
// caches (or none).
var globalCache = stagecache.New(stagecache.Options{MaxBytes: 32 << 20})

// GlobalCacheStats snapshots the process-global compile/static cache.
func GlobalCacheStats() stagecache.Stats { return globalCache.Stats() }

// CompileCached compiles MiniC source through the global compile cache:
// recompiling identical source returns the cached (immutable, shareable)
// program. Compile errors are returned but not cached.
func CompileCached(filename, src string) (*vm.Program, error) {
	v, _, err := globalCache.Do(KindCompile, cachekey.Source(filename, src), func() (any, int64, error) {
		p, err := lang.Compile(filename, src)
		if err != nil {
			return nil, 0, err
		}
		return p, estimateProgramBytes(p), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*vm.Program), nil
}

// cacheable reports whether this analyzer's results may go
// through the configured result cache. Fault plans inject nondeterminism
// (panics, stalls, scripted traps), so their results must not be reused;
// an Uncached analyzer's caller wants the graph, which entries do not keep.
func (a *Analyzer) cacheable() bool {
	return a.cfg.Cache != nil && a.bypassReason() == ""
}

// bypassReason says why a run skips the configured cache, "" if it does not.
func (a *Analyzer) bypassReason() string {
	switch {
	case a.cfg.Fault != nil:
		return "fault-injection"
	case a.uncached:
		return "graph"
	}
	return ""
}

// keys returns the memoized program and config keys.
func (a *Analyzer) keys() (prog, cfg cachekey.Key) {
	a.cfgOnce.Do(func() { a.cfgKey = a.configKey() })
	return a.programKey(), a.cfgKey
}

// programKey returns the memoized program key.
func (ps *programState) programKey() cachekey.Key {
	ps.keyOnce.Do(func() { ps.progKey = cachekey.Program(ps.prog) })
	return ps.progKey
}

// configKey canonicalizes the result-relevant configuration. Fields that
// cannot change a cached Result are deliberately excluded: Workers only
// shapes scheduling, Fault gates cacheability instead of keying it, and
// Precision and AdaptiveThreshold only choose whether a cheap rung
// answers — rung answers never enter the cache, and an escalated run
// returns exactly the full run's Result. Everything else — tracker
// options, step limit, budgets, lint — changes either the bound or the
// diagnostics, so it keys.
func (a *Analyzer) configKey() cachekey.Key {
	opts := a.cfg.Taint
	h := cachekey.New("config/v4").
		Bool(opts.Exact).
		Bool(opts.ContextSensitive).
		Int(int64(opts.MaxDescriptors)).
		Bool(opts.WarnImplicit).
		Int(int64(len(opts.SecretRanges)))
	for _, r := range opts.SecretRanges {
		h.Int(int64(r.Off)).Int(int64(r.Len))
	}
	h.Uint(a.cfg.MaxSteps).
		Bool(a.cfg.Lint)
	b := a.cfg.Budget
	h.Int(int64(b.MaxGraphNodes)).
		Int(int64(b.MaxGraphEdges)).
		Int(int64(b.MaxOutputBytes)).
		Int(b.SolverWork)
	return h.Sum()
}

// resultKey keys one single-run analysis: program x config x inputs.
func (a *Analyzer) resultKey(in Inputs) cachekey.Key {
	p, c := a.keys()
	return cachekey.New("result/v1").Key(p).Key(c).Key(cachekey.Inputs(in.Secret, in.Public)).Sum()
}

// staticKey keys the static pre-pass: program only.
func (ps *programState) staticKey() cachekey.Key {
	return cachekey.New("static/v1").Key(ps.programKey()).Sum()
}

// Cached returns the cached result for in, or ok=false without running
// the pipeline. The service uses it as the warm-program fast path: a hit
// is answered before the request ever enters admission queuing. A
// configuration a cheap rung answers gets ok=false, since the cached
// full result under its key is not its answer.
func (a *Analyzer) Cached(in Inputs) (*Result, bool) {
	if !a.cacheable() {
		return nil, false
	}
	if _, ok := a.ladderMulti([]Inputs{in}); ok {
		return nil, false
	}
	key := a.resultKey(in)
	t0 := time.Now()
	v, ok := a.cfg.Cache.Peek(KindResult, key)
	if !ok {
		return nil, false
	}
	return stampCacheHit(v.(*Result), time.Since(t0), key), true
}

// answer is what the result cache keeps of r: all of it but the graph and
// the cut's edge indices into it, with the cut in compact form instead, so
// a hit renders the cut the miss did.
func (r *Result) answer() *Result {
	ans := *r
	ans.Graph, ans.Cut, ans.cut = nil, nil, r.cutTerms()
	return &ans
}

// stampCacheHit prepares a cached result for return: a shallow copy (the
// cached value is shared and immutable) whose stage accounting shows only
// the lookup and whose trace marks the full hit.
func stampCacheHit(res *Result, lookup time.Duration, key cachekey.Key) *Result {
	cp := *res
	cp.Stages = StageStats{Lookup: lookup, Total: lookup}
	cp.Cache = CacheTrace{Disposition: CacheHit, Key: key.Short()}
	return &cp
}

// --- size estimation -------------------------------------------------
//
// The byte budget wants honest-order-of-magnitude charges, not exact heap
// accounting: the estimators price the dominant slices (edges, CSR
// columns, output bytes) at their struct sizes and fold everything else
// into small per-element constants.

const (
	edgeBytes    = int64(unsafe.Sizeof(flowgraph.Edge{}))
	ctxBytes     = 8  // one context word of a collapsed graph
	instrBytes   = 16 // vm.Instr
	perDiagBytes = 64 // warnings, lint findings, run summaries (strings dominate)
	structOverhd = 512
)

func estimateProgramBytes(p *vm.Program) int64 {
	n := int64(structOverhd)
	n += int64(len(p.Code)) * instrBytes
	n += int64(len(p.Data))
	n += int64(len(p.Sites)) * perDiagBytes
	n += int64(len(p.Funcs)) * perDiagBytes
	return n
}

func estimateStaticBytes(sa *static.Analysis) int64 {
	n := int64(structOverhd)
	n += int64(sa.Stats.Blocks) * 64
	n += int64(sa.Stats.Branches) * 32
	n += int64(sa.Stats.Regions) * 48
	n += int64(sa.Stats.Enclosures) * 32
	if sa.Prog != nil {
		n += int64(len(sa.Prog.Code)) / 8 // covered-pc bitset
	}
	if sa.Bound != nil {
		n += int64(len(sa.Bound.Channels)) * perDiagBytes
		n += int64(len(sa.Bound.Notes)) * perDiagBytes
	}
	return n
}

// Fixed costs of a cached answer beyond its slices: the Result itself, and
// the store's entry, map slot and short key string for it with the
// Result's allocation rounding (~220 B, measured by
// TestAnswerPriceMatchesHeap).
const (
	resultBytes     = int64(unsafe.Sizeof(Result{}))
	storeEntryBytes = 220
	cutTermBytes    = int64(unsafe.Sizeof(cutTerm{}))
	warningBytes    = int64(unsafe.Sizeof(taint.Warning{}))
	snapshotBytes   = int64(unsafe.Sizeof(taint.Snapshot{}))
	findingBytes    = int64(unsafe.Sizeof(static.Finding{}))
)

// estimateResultBytes prices a cached answer (Result.answer) at what it
// holds: the Result and its store entry, the cut's compact terms, the
// output and the diagnostics with their strings. Slices are charged by
// capacity, since that is what they retain.
func estimateResultBytes(r *Result) int64 {
	n := resultBytes + storeEntryBytes
	n += int64(cap(r.cut)) * cutTermBytes
	n += int64(cap(r.Output)) + int64(len(r.DegradedReason))
	n += int64(cap(r.Warnings)) * warningBytes
	for _, w := range r.Warnings {
		n += int64(len(w.Site) + len(w.Msg))
	}
	n += int64(cap(r.Snapshots)) * snapshotBytes
	n += int64(cap(r.Lint)) * findingBytes
	for _, f := range r.Lint {
		n += int64(len(f.Where) + len(f.Msg))
	}
	return n
}
