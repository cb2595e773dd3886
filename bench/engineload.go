package main

import (
	"context"
	"time"

	"flowcheck/internal/engine"
	"flowcheck/internal/guest"
	"flowcheck/internal/taint"
	"flowcheck/internal/workload"
)

// runExact is exact-compress: one closed-loop client analyzing 768–1536 B
// compress windows in exact mode, with no cache.
func runExact(e *env) (*childReport, error) {
	a := engine.New(guest.Program("compress"), engine.Config{Taint: taint.Options{Exact: true}})
	a.StaticBoundBits(0) // compile and static analysis belong to set-up
	if !e.ready() {
		return nil, nil
	}
	gen := newExactGen(e.seed, workload.PiWords(corpusBytes))
	ctx := context.Background()
	ops, window, p0, p1 := closedLoop(e, e.count(3, 1), func(id int64, traced bool) *opRec {
		r := gen.next()
		o := &opRec{id: id, req: r, traced: traced, start: time.Now()}
		res, err := a.AnalyzeContext(ctx, r.inputs())
		end := time.Now()
		o.call, o.lat, o.err = end.Sub(o.start), end.Sub(o.start), err
		if err == nil {
			o.out = outcomeOf(res)
		}
		if traced {
			root := e.rec.add("engine.AnalyzeContext", id, -1, o.start, end)
			e.rec.stages(id, root, end, o.out.stages, 1)
		}
		return o
	})
	return e.engineReport(ops, window, p0, p1, a, 1), nil
}

// runBatch is collapsed-batch: one closed-loop client running batches of
// eight 512–1024 B compress windows in collapsed mode on two workers.
func runBatch(e *env) (*childReport, error) {
	const workers = 2
	a := engine.New(guest.Program("compress"), engine.Config{Workers: workers})
	a.StaticBoundBits(0)
	if !e.ready() {
		return nil, nil
	}
	gen := newBatchGen(e.seed, workload.PiWords(corpusBytes))
	ctx := context.Background()
	ops, window, p0, p1 := closedLoop(e, e.count(3, 1), func(id int64, traced bool) *opRec {
		runs := gen.next()
		inputs := make([]engine.Inputs, len(runs))
		for i, r := range runs {
			inputs[i] = r.inputs()
		}
		o := &opRec{id: id, runs: runs, traced: traced, start: time.Now()}
		res, err := a.AnalyzeBatchContext(ctx, inputs)
		end := time.Now()
		o.call, o.lat, o.err = end.Sub(o.start), end.Sub(o.start), err
		if err == nil {
			o.out = outcomeOf(res)
		}
		if traced {
			root := e.rec.add("engine.AnalyzeBatchContext", id, -1, o.start, end)
			e.rec.stages(id, root, end, o.out.stages, workers)
		}
		return o
	})
	return e.engineReport(ops, window, p0, p1, a, workers), nil
}

// engineReport checks and summarizes a run of an in-process engine
// workload.
func (e *env) engineReport(ops []*opRec, window time.Duration, p0, p1 procSample, a *engine.Analyzer, workers int) *childReport {
	rep := &childReport{Metrics: map[string]float64{}}
	e.checkAll(rep, ops)
	e.knownAnswers(func(r *request) (int64, error) { return e.oracle.bits(context.Background(), r) })
	m := rep.Metrics
	win := measured(ops)
	latencyMetrics(m, win, window)
	m["live_heap_mib"] = p1.liveHeapMiB
	m["process.peak_rss_mib"] = p1.peakRSSMiB
	if e.rec == nil {
		return rep
	}
	engineLayers(m, win, workers, true)
	procMetrics(m, p0, p1, len(win))
	pool := a.Pool()
	m["engine.sessions_created"] = float64(pool.Created)
	m["engine.sessions_recycled"] = float64(pool.Recycled)
	e.traceMetrics(m, win, 0.9)
	reqs := requestsOf(win)
	e.probeVM(m, reqs)
	e.probeStatic(m, reqs)
	return rep
}
