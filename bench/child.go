package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// env is what one workload run executes with, inside the child process.
type env struct {
	seed      int64
	window    time.Duration
	short     bool // smoke-test profile: smaller warm-ups, probes and load
	setupOnly bool
	dir       string    // the child's own scratch directory
	rec       *recorder // nil unless traced
	gate      *gate
	oracle    *oracle
}

// ready reports the end of set-up to the parent, which times set-up from
// process start to this line. It returns false for set-up-only children,
// which then stop.
func (e *env) ready() bool {
	fmt.Println("ready")
	return !e.setupOnly
}

// traced says whether operation i is traced. A traced run traces every
// other operation, so the untraced half measures what tracing costs.
func (e *env) traced(i int) bool { return e.rec != nil && i%2 == 0 }

// count picks a warm-up length or probe size: the full one, or the
// smoke-test one.
func (e *env) count(full, short int) int {
	if e.short {
		return short
	}
	return full
}

// childReport is what a child hands back to the parent.
type childReport struct {
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

// childMain runs one workload in this process: set up, say ready, then
// warm up, measure, check and, when traced, probe. It prints the report
// as a "result" line.
func childMain(args []string) int {
	fs := flag.NewFlagSet("bench child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measurement window")
	trace := fs.String("trace-out", "", "write spans here and report per-layer metrics")
	short := fs.Bool("short", false, "smoke-test profile")
	setupOnly := fs.Bool("setup-only", false, "stop after set-up")
	dir := fs.String("dir", "", "scratch directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	g := newGate()
	e := &env{
		seed:      *seed,
		window:    time.Duration(*seconds * float64(time.Second)),
		short:     *short,
		setupOnly: *setupOnly,
		dir:       *dir,
		gate:      g,
		oracle:    newOracle(),
	}
	if *trace != "" {
		e.rec = newRecorder()
	}
	rep, err := w.run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if rep == nil { // set-up only
		return 0
	}
	g.mu.Lock()
	rep.Failures = g.failures
	if g.dropped > 0 {
		rep.Failures = append(rep.Failures, fmt.Sprintf("... and %d more", g.dropped))
	}
	g.mu.Unlock()
	if e.rec != nil {
		if err := os.MkdirAll(filepath.Dir(*trace), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if err := e.rec.write(*trace, w.name, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing trace:", err)
			return 1
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("result %s\n", line)
	return 0
}

// procSample is a snapshot of the process's allocation and GC counters and
// of its peak resident set so far. A window's closing sample also holds the
// mean live heap over the window.
type procSample struct {
	mallocs, bytes uint64
	gcCPU, allCPU  float64
	peakRSSMiB     float64
	liveHeapMiB    float64
}

// heapWatch samples the live heap, what the last GC found reachable, every
// 10 ms. Its mean over a window is live_heap_mib. The peak resident set
// and the heap's own peak depend on where GC cycles happen to fall against
// the largest operations, so they vary from run to run far more than the
// mean live heap does.
type heapWatch struct {
	stop chan struct{}
	mean chan float64
}

// watchHeap samples from the time from on, until stopped.
func watchHeap(from time.Time) *heapWatch {
	w := &heapWatch{stop: make(chan struct{}), mean: make(chan float64)}
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		read := func() float64 {
			metrics.Read(s)
			return float64(s[0].Value.Uint64()) / (1 << 20)
		}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var sum float64
		var n int
		for {
			select {
			case <-w.stop:
				if n == 0 { // a window shorter than one tick
					sum, n = read(), 1
				}
				w.mean <- sum / float64(n)
				return
			case now := <-tick.C:
				if !now.Before(from) {
					sum += read()
					n++
				}
			}
		}
	}()
	return w
}

// end stops the sampling and closes the window: the process counters now,
// with the mean live heap since the window's start.
func (w *heapWatch) end() procSample {
	close(w.stop)
	p := sampleProc()
	p.liveHeapMiB = <-w.mean
	return p
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(cpuMetrics))
	copy(s, cpuMetrics)
	metrics.Read(s)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // Maxrss is VmHWM, in KiB
	return procSample{
		mallocs:    ms.Mallocs,
		bytes:      ms.TotalAlloc,
		gcCPU:      s[0].Value.Float64(),
		allCPU:     s[1].Value.Float64(),
		peakRSSMiB: float64(ru.Maxrss) / 1024,
	}
}

// procMetrics are the allocation and GC metrics between two samples that
// bracket ops operations.
func procMetrics(m map[string]float64, a, b procSample, ops int) {
	m["engine.allocs_per_op"] = ratio(float64(b.mallocs-a.mallocs), float64(ops))
	m["engine.alloc_bytes_per_op"] = ratio(float64(b.bytes-a.bytes), float64(ops))
	m["process.gc_cpu_frac"] = ratio(b.gcCPU-a.gcCPU, b.allCPU-a.allCPU)
}
