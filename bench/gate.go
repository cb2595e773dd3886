package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"sync"

	"flowcheck/internal/engine"
	"flowcheck/internal/guest"
)

//go:embed testdata/golden.json
var goldenJSON []byte

// goldenFile is testdata/golden.json: per workload, request key → bits for
// the first goldenOps operations of seeds 1 and 2.
type goldenFile map[string]map[string]int64

// maxFailureMessages bounds the failure messages a run keeps.
const maxFailureMessages = 20

// golden is testdata/golden.json flattened to request key → bits. It is
// parsed on first use, after the window: parsing takes a few milliseconds,
// which would otherwise count as set-up.
var golden = sync.OnceValue(func() map[string]int64 {
	var gf goldenFile
	if err := json.Unmarshal(goldenJSON, &gf); err != nil {
		panic(fmt.Sprintf("bench: parsing testdata/golden.json: %v", err))
	}
	out := map[string]int64{}
	for _, keys := range gf {
		for k, bits := range keys {
			out[k] = bits
		}
	}
	return out
})

// gate is the output check every operation passes through: bits must match
// the golden file where it covers the request, must repeat exactly for a
// repeated request, and must respect the soundness invariants.
type gate struct {
	seen map[string]int64

	mu       sync.Mutex
	failures []string
	dropped  int
}

func newGate() *gate { return &gate{seen: map[string]int64{}} }

// failf records a failed check.
func (g *gate) failf(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.failures) < maxFailureMessages {
		g.failures = append(g.failures, fmt.Sprintf(format, args...))
	} else {
		g.dropped++
	}
}

// answer checks one reported answer against the golden bits and against
// earlier answers to the same request.
func (g *gate) answer(key string, bits int64, what string) bool {
	if want, ok := golden()[key]; ok && want != bits {
		g.failf("%s %s: %d bits, golden %d", what, key, bits, want)
		return false
	}
	g.mu.Lock()
	prev, ok := g.seen[key]
	if !ok {
		g.seen[key] = bits
	}
	g.mu.Unlock()
	if ok && prev != bits {
		g.failf("%s %s: %d bits, earlier answer %d", what, key, bits, prev)
		return false
	}
	return true
}

// bounded checks one answer against the precision ladder: a full solve
// reports at most the static bound, which is at most 8 bits per secret
// byte; a cheap rung reports exactly its own bound.
func (g *gate) bounded(o *oracle, r *request, bits int64, rung string) bool {
	static := o.static(r)
	trivial := engine.TrivialBoundBits(len(r.Secret))
	ok := static <= trivial
	switch rung {
	case engine.RungFull:
		ok = ok && bits <= static
	case engine.RungStatic:
		ok = ok && bits == static
	case engine.RungTrivial:
		ok = ok && bits == trivial
	default:
		ok = false
	}
	if !ok {
		g.failf("%s %s: %d bits at rung %q against static bound %d and trivial bound %d",
			r.name(), r.key(), bits, rung, static, trivial)
	}
	return ok
}

// oracle answers requests directly through the engine: the reference the
// golden file is written from and serve and fleet answers are checked
// against. Analyzers are kept per configuration, so their sessions are
// reused.
type oracle struct {
	mu        sync.Mutex
	analyzers map[string]*engine.Analyzer
}

func newOracle() *oracle { return &oracle{analyzers: map[string]*engine.Analyzer{}} }

func (o *oracle) analyzer(r *request) *engine.Analyzer {
	cfg := r.config()
	cfg.Workers = 2
	key := fmt.Sprintf("%s/%v/%d", r.name(), cfg.Precision, cfg.AdaptiveThreshold)
	o.mu.Lock()
	defer o.mu.Unlock()
	a, ok := o.analyzers[key]
	if !ok {
		a = engine.New(guest.Program(r.Program), cfg)
		o.analyzers[key] = a
	}
	return a
}

// static is the program's static bound for the request's secret length.
func (o *oracle) static(r *request) int64 {
	plain := &request{Program: r.Program, Exact: r.Exact, Secret: r.Secret}
	return o.analyzer(plain).StaticBoundBits(len(r.Secret))
}

// bits answers one request. A class request's joint bound is the bound of
// the whole secret, which a plain analysis answers.
func (o *oracle) bits(ctx context.Context, r *request) (int64, error) {
	res, err := o.analyzer(r).AnalyzeContext(ctx, r.inputs())
	if err != nil {
		return 0, err
	}
	if res.Trap != nil {
		return 0, fmt.Errorf("%s trapped: %v", r.name(), res.Trap)
	}
	return res.Bits, nil
}

// batch answers a batch: the joint bound and each run's own bound.
func (o *oracle) batch(ctx context.Context, runs []*request) (int64, []int64, error) {
	inputs := make([]engine.Inputs, len(runs))
	for i, r := range runs {
		inputs[i] = r.inputs()
	}
	res, err := o.analyzer(runs[0]).AnalyzeBatchContext(ctx, inputs)
	if err != nil {
		return 0, nil, err
	}
	per := make([]int64, len(res.Runs))
	for i, rs := range res.Runs {
		if rs.Err != nil {
			return 0, nil, fmt.Errorf("run %d: %w", i, rs.Err)
		}
		per[i] = rs.Bits
	}
	return res.Bits, per, nil
}
