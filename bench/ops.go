package main

import (
	"fmt"
	"time"

	"flowcheck/internal/engine"
	"flowcheck/internal/guest"
	"flowcheck/internal/vm"
)

// outcome is what the benchmark keeps of one engine result; the result
// itself holds the flow graph, too large to keep for every operation.
type outcome struct {
	bits      int64
	rung      string
	trapped   bool
	steps     uint64
	stages    engine.StageStats
	edges     int
	peakEdges int
	runBits   []int64 // batch: each run's own bound
	runErr    error   // batch: the first run that failed
	classes   []engine.ClassResult
}

func outcomeOf(res *engine.Result) outcome {
	o := outcome{
		bits:      res.Bits,
		rung:      res.Rung,
		trapped:   res.Trap != nil,
		steps:     res.Steps,
		stages:    res.Stages,
		peakEdges: res.Mem.PeakLiveEdges,
	}
	if res.Graph != nil {
		o.edges = len(res.Graph.Edges)
	}
	if res.Runs != nil {
		o.steps = 0
		for _, rs := range res.Runs {
			o.runBits = append(o.runBits, rs.Bits)
			o.steps += rs.Steps
			if rs.Err != nil && o.runErr == nil {
				o.runErr = fmt.Errorf("run %d: %w", rs.Run, rs.Err)
			}
		}
	}
	return o
}

// opRec is one operation: what was asked, how long it took and what came
// back.
type opRec struct {
	id     int64
	req    *request   // a single request, or
	runs   []*request // a batch
	due    time.Time  // when the operation was due: its send time in an open loop
	start  time.Time  // when the timed call began
	call   time.Duration
	lat    time.Duration // from due to completion: what the caller waited
	out    outcome
	err    error
	warm   bool
	traced bool
}

// check passes one operation through the output gate.
func (e *env) check(o *opRec) bool {
	g := e.gate
	if o.err != nil {
		g.failf("op %d: %v", o.id, o.err)
		return false
	}
	if o.runs != nil {
		if o.out.runErr != nil {
			g.failf("op %d: batch %v", o.id, o.out.runErr)
			return false
		}
		if len(o.out.runBits) != len(o.runs) {
			g.failf("op %d: batch answered %d of %d runs", o.id, len(o.out.runBits), len(o.runs))
			return false
		}
		ok := g.answer(batchKey(o.runs), o.out.bits, "batch")
		for i, r := range o.runs {
			if o.out.bits < o.out.runBits[i] {
				g.failf("op %d: joint bound %d below run %d's %d", o.id, o.out.bits, i, o.out.runBits[i])
				ok = false
			}
			ok = g.answer(r.key(), o.out.runBits[i], r.name()) && ok
			ok = g.bounded(e.oracle, r, o.out.runBits[i], engine.RungFull) && ok
		}
		return ok
	}
	if o.out.trapped {
		g.failf("op %d: %s trapped", o.id, o.req.name())
		return false
	}
	ok := g.answer(o.req.key(), o.out.bits, o.req.name())
	ok = g.bounded(e.oracle, o.req, o.out.bits, o.out.rung) && ok
	for _, c := range o.out.classes {
		switch {
		case c.Err != nil:
			g.failf("op %d: class %s: %v", o.id, c.Class.Name, c.Err)
			ok = false
		case c.Bits > o.out.bits || c.Bits > engine.TrivialBoundBits(c.Class.Len):
			g.failf("op %d: class %s: %d bits above the joint %d or its own %d bytes",
				o.id, c.Class.Name, c.Bits, o.out.bits, c.Class.Len)
			ok = false
		}
	}
	return ok
}

// checkAll gates every operation and counts them into the report.
func (e *env) checkAll(rep *childReport, ops []*opRec) {
	for _, o := range ops {
		rep.Attempted++
		if !e.check(o) {
			rep.Failed++
		}
	}
}

// measured are the window's operations, leaving out warm-up.
func measured(ops []*opRec) []*opRec {
	var out []*opRec
	for _, o := range ops {
		if !o.warm {
			out = append(out, o)
		}
	}
	return out
}

// latencyMetrics are what the load generator saw in a window: completed
// operations per second and latency percentiles, the latter over the
// untraced operations so that tracing does not inflate them. Failed
// operations count in the report, not here.
func latencyMetrics(m map[string]float64, ops []*opRec, window time.Duration) {
	var done int
	var lat []float64
	for _, o := range ops {
		if o.err != nil {
			continue
		}
		done++
		if !o.traced {
			lat = append(lat, ms(o.lat))
		}
	}
	m["loadgen.ops_per_s"] = ratio(float64(done), window.Seconds())
	m["loadgen.latency_p50_ms"] = median(lat)
	m["loadgen.latency_p90_ms"] = percentile(lat, 90)
	m["loadgen.latency_p99_ms"] = percentile(lat, 99)
}

// closedLoop runs one client's operations back to back: warm ones untimed,
// then as many as the window holds. It returns every operation, the
// window's length and the process counters bracketing it.
func closedLoop(e *env, warm int, op func(id int64, traced bool) *opRec) ([]*opRec, time.Duration, procSample, procSample) {
	var ops []*opRec
	for i := 0; i < warm; i++ {
		o := op(int64(i), false)
		o.warm = true
		ops = append(ops, o)
	}
	p0 := sampleProc()
	start := time.Now()
	heap := watchHeap(start)
	for i := 0; time.Since(start) < e.window; i++ {
		ops = append(ops, op(int64(warm+i), e.traced(i)))
	}
	elapsed := time.Since(start)
	return ops, elapsed, p0, heap.end()
}

// firstTraced bounds how many traced operations the graph-size counts
// average over. Taking a fixed prefix makes them exact, repeatable counts
// for a seed, whatever the window's length.
const firstTraced = 8

// engineLayers derives the engine-side per-layer metrics from the traced
// operations that executed (cache hits and cheap rungs did not). self
// gives the part of an operation's timed call outside the engine's own
// stages, when the benchmark times the engine call itself.
func engineLayers(m map[string]float64, ops []*opRec, workers int, self bool) {
	var execNS, steps, solveNS, edgesSum float64
	var build, solve, report, merge, selfUS, edges, peaks []float64
	for _, o := range ops {
		if !o.traced || o.err != nil || o.out.stages.Execute == 0 {
			continue
		}
		st := o.out.stages
		execNS += float64(st.Execute)
		steps += float64(o.out.steps)
		solveNS += float64(st.Solve)
		edgesSum += float64(o.out.edges)
		build = append(build, ms(st.Build))
		solve = append(solve, ms(st.Solve))
		report = append(report, ms(st.Report))
		if workers > 1 {
			merge = append(merge, ms(st.Merge))
		}
		if self {
			selfUS = append(selfUS, us(o.call-st.Total))
		}
		if len(edges) < firstTraced {
			edges = append(edges, float64(o.out.edges))
			peaks = append(peaks, float64(o.out.peakEdges))
		}
	}
	m["taint.execute_ns_per_step"] = ratio(execNS, steps)
	m["taint.build_ms"] = median(build)
	m["flowgraph.edges"] = ratio(sum(edges), float64(len(edges)))
	m["flowgraph.peak_live_edges"] = ratio(sum(peaks), float64(len(peaks)))
	m["maxflow.solve_ms"] = median(solve)
	m["maxflow.solve_ns_per_edge"] = ratio(solveNS, edgesSum)
	m["merge.merge_ms"] = median(merge)
	m["engine.report_ms"] = median(report)
	m["engine.self_us"] = median(selfUS)
}

// traceMetrics reconciles the traced operations' spans with their latency
// and compares traced against untraced operations. minCovered is the share
// of latency the innermost spans must cover: 0.9 where they are the
// engine's stages under the timed engine call, 0 where serve or the
// coordinator sit between them and the operation, whose own time is not
// traced apart from their children's.
func (e *env) traceMetrics(m map[string]float64, ops []*opRec, minCovered float64) {
	var tl, ul []float64
	for _, o := range ops {
		if o.err != nil {
			continue
		}
		if o.traced {
			tl = append(tl, ms(o.lat))
		} else {
			ul = append(ul, ms(o.lat))
		}
	}
	m["trace.overhead_frac"] = ratio(median(tl), median(ul)) - 1
	frac := e.rec.reconcile(e.gate)
	m["trace.accounted_frac"] = frac
	if frac < minCovered {
		e.gate.failf("innermost spans cover %.1f%% of traced operation latency, below %.0f%%", 100*frac, 100*minCovered)
	}
}

// probeVM times the VM alone on the workload's inputs, after the window:
// vm.Machine.Reset of a default-size guest memory, and the uninstrumented
// interpreter per executed step (Run on a reset machine, so the time is
// the interpreter's, not the 4 MiB allocation of a fresh one).
func (e *env) probeVM(m map[string]float64, reqs []*request) {
	if len(reqs) == 0 {
		return
	}
	n := e.count(64, 8)
	mach := vm.NewMachineSize(guest.Program(reqs[0].Program), vm.DefaultMemSize)
	var resets []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		mach.Reset()
		resets = append(resets, us(time.Since(t0)))
	}
	m["vm.reset_us"] = median(resets)

	machines := map[string]*vm.Machine{}
	var ns, steps float64
	for i, r := range reqs {
		if i == n {
			break
		}
		mm := machines[r.Program]
		if mm == nil {
			mm = vm.NewMachineSize(guest.Program(r.Program), vm.DefaultMemSize)
			machines[r.Program] = mm
		}
		mm.Reset()
		mm.SecretIn, mm.PublicIn = r.Secret, r.Public
		t0 := time.Now()
		err := mm.Run()
		d := time.Since(t0)
		if err != nil {
			e.gate.failf("plain run of %s: %v", r.name(), err)
			continue
		}
		ns += float64(d)
		steps += float64(mm.Steps)
	}
	m["vm.plain_ns_per_step"] = ratio(ns, steps)
	m["taint.overhead_x"] = ratio(m["taint.execute_ns_per_step"], m["vm.plain_ns_per_step"])
}

// probeStatic times the static bound the service charges the ledger with
// on every request: a warm analyzer's StaticBoundBits.
func (e *env) probeStatic(m map[string]float64, reqs []*request) {
	const calls = 1000
	var per []float64
	for i, r := range reqs {
		if i == 16 {
			break
		}
		a := e.oracle.analyzer(&request{Program: r.Program, Exact: r.Exact})
		a.StaticBoundBits(len(r.Secret))
		t0 := time.Now()
		for k := 0; k < calls; k++ {
			a.StaticBoundBits(len(r.Secret))
		}
		per = append(per, us(time.Since(t0))/calls)
	}
	m["static.bound_us"] = median(per)
}

// requestsOf lists the distinct single requests of the operations, in
// order of first appearance.
func requestsOf(ops []*opRec) []*request {
	seen := map[string]bool{}
	var out []*request
	add := func(r *request) {
		if k := r.key(); !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	for _, o := range ops {
		if o.req != nil {
			add(o.req)
		}
		for _, r := range o.runs {
			add(r)
		}
	}
	return out
}
