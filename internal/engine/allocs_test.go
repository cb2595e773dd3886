package engine_test

// allocs_test.go pins the allocation behavior of the engine's batch path.
// Pooled sessions mean a warmed Analyzer re-running the same batch should
// allocate only per-run result assembly — not fresh graphs, solver
// networks, queues, tracker builders or guest memory. The ceilings are ~2x
// the measured steady state, so they catch a regression that reintroduces
// per-run rebuilding of any large structure without flaking on allocator
// noise.

import (
	"runtime"
	"runtime/debug"
	"testing"

	"flowcheck/internal/engine"
	"flowcheck/internal/guest"
	"flowcheck/internal/workload"
)

func TestBatchAllocsSteadyState(t *testing.T) {
	prog := guest.Program("unary")
	inputs := unaryInputs(5, 50, 120, 200)
	a := engine.New(prog, engine.Config{Workers: 1})

	// Warm the pooled session (guest memory, tracker, solver buffers).
	if _, err := a.AnalyzeBatch(inputs); err != nil {
		t.Fatal(err)
	}

	avg := testing.AllocsPerRun(10, func() {
		if _, err := a.AnalyzeBatch(inputs); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("batch of %d runs: %.0f allocs/op", len(inputs), avg)

	const ceiling = 1000 // steady state measures ~500 for this batch
	if avg > ceiling {
		t.Fatalf("batch path allocates %.0f/op, ceiling %d — a pooled buffer regressed to per-run allocation", avg, ceiling)
	}

	// Bytes per op on a collapsed compress batch, where the tracker's graph
	// builder (arena, union-find, label maps) and shadow pages dominate: a
	// recycled session reuses them, so only the exported graphs, the merge
	// and the results are allocated.
	text := workload.PiWords(4096)
	var windows []engine.Inputs
	for i := 0; i < 8; i++ {
		windows = append(windows, engine.Inputs{Secret: text[256*i : 256*i+512]})
	}
	c := engine.New(guest.Program("compress"), engine.Config{Workers: 1})
	if _, err := c.AnalyzeBatch(windows); err != nil {
		t.Fatal(err)
	}
	// With the collector off no GC can empty the session pool mid-measure,
	// so every batch reuses the warmed session.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := c.AnalyzeBatch(windows); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("compress batch of %d runs: %d B/op", len(windows), perOp)

	// Steady state measures ~1.5 MB; rebuilding the builder every run
	// allocated ~9 MB.
	const bytesCeiling = 3 << 20
	if perOp > bytesCeiling {
		t.Fatalf("compress batch allocates %d B/op, ceiling %d — a recycled tracker buffer regressed to per-run allocation", perOp, bytesCeiling)
	}
}
