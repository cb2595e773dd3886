package engine_test

// allocs_test.go pins the allocation behavior of the engine's batch path.
// Pooled sessions mean a warmed Analyzer re-running the same batch should
// allocate only per-run result assembly and each run's own layout and
// solver — not fresh tracker builders or guest memory. The ceilings are ~2x
// the measured steady state, so they catch a regression that reintroduces
// per-run rebuilding of any large structure without flaking on allocator
// noise.

import (
	"runtime"
	"runtime/debug"
	"testing"

	"flowcheck/internal/engine"
	"flowcheck/internal/guest"
	"flowcheck/internal/taint"
	"flowcheck/internal/workload"
)

func TestBatchAllocsSteadyState(t *testing.T) {
	prog := guest.Program("unary")
	inputs := unaryInputs(5, 50, 120, 200)
	a := engine.New(prog, engine.Config{Workers: 1})

	// Warm the pooled session (guest memory, tracker).
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

// TestExactBytesPerEdge bounds what a warmed exact-mode analysis allocates
// per graph edge. A recycled session keeps only the size of its next edge
// store; the run's arena store, sized for the largest recent run, becomes
// its graph. So a run allocates that store, its own reduced layout and
// solver, and its cut; the bytes per edge therefore track the edge
// record, and rebuilding any other per-edge structure on every run would
// add its own size.
//
// The warm-up and the measured runs share one held session: through the
// pool, a run on a goroutine that had moved to another P could draw a
// fresh session and regrow its edge store inside the measured window.
func TestExactBytesPerEdge(t *testing.T) {
	in := engine.Inputs{Secret: workload.PiWords(1024)}
	a := engine.New(guest.Program("compress"), engine.Config{Workers: 1, Taint: taint.Options{Exact: true}})
	h := engine.HoldSession(a)
	defer h.Release()
	res, err := h.Analyze(in)
	if err != nil {
		t.Fatal(err)
	}
	edges := res.Graph.NumEdges()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := h.Analyze(in); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perEdge := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(edges)
	t.Logf("exact compress, %d edges: %.1f B/edge", edges, perEdge)

	// Steady state measures ~45 B/edge: the 24-byte exported edge, the
	// cut, and ~18 B of layout, residuals and solver scratch. It measured
	// ~54 while each result kept an 8-byte flow per edge, and ~62 with the
	// 32-byte edge that carried its context word; this ceiling fails both.
	const ceiling = 49
	if perEdge > ceiling {
		t.Fatalf("exact run allocates %.1f B per edge, ceiling %d — an edge record grew or another per-edge structure is built every run", perEdge, ceiling)
	}
}
