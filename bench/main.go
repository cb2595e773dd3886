// Command bench is the repository benchmark. It drives the analyzer end to
// end on four seeded workloads, checks every answer, and reports end-to-end
// metrics (or, traced, per-layer metrics) as JSON.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload NAME --seed N [--seconds S] [--trace 0|1]
//	bash bench/run.sh --seed N [--trace 0|1]   every workload, one JSON document
//	bash bench/run.sh compare A.json B.json    compare two sets of runs
//	bash bench/run.sh --write-golden           rewrite bench/testdata/golden.json
//
// Each workload runs in child processes of its own: several that only set
// up, to time set-up, then one that sets up, warms up, measures for the
// window, checks the answers and, traced, probes single layers. The last
// line of standard output is the JSON result; a human-readable table goes
// to standard error. The exit code is non-zero when any check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	why  string
	// goldenOps is how many leading operations of seeds 1 and 2 (per
	// client, for fleet-http) testdata/golden.json covers.
	goldenOps int
	// prepare readies a child's scratch directory, before the child starts.
	prepare func(dir string, seed int64) error
	// run is the child's side: set up, report ready, measure, check.
	run func(e *env) (*childReport, error)
}

var workloads = []*workloadDef{
	{
		name:      "exact-compress",
		why:       "one client, exact-mode compress on 768-1536 B windows, no cache: Build and Solve on 100k-300k-edge graphs are half the time",
		goldenOps: 160,
		run:       runExact,
	},
	{
		name:      "collapsed-batch",
		why:       "one client, batches of eight equal 512-1024 B compress windows on two workers: Execute is ~99% of the time, Solve ~1%",
		goldenOps: 128,
		run:       runBatch,
	},
	{
		name:      "service-small",
		why:       "open-loop 500 rps into serve with a durable fsync ledger and 8 MiB cache over ten small guests: per-request fixed costs",
		goldenOps: 768,
		prepare:   prepareService,
		run:       runService,
	},
	{
		name:      "fleet-http",
		why:       "two clients over loopback HTTP through the fleet coordinator to two shards, 70% repeats: routing, hops, JSON and merge",
		goldenOps: 384,
		run:       runFleet,
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// workDir is where runs keep their files: the build directory run.sh
// exports, or .bench_build under the working directory.
func workDir() string {
	if d := os.Getenv("BENCH_WORKDIR"); d != "" {
		return d
	}
	return ".bench_build"
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "child":
			return childMain(args[1:])
		case "compare":
			return compareMain(args[1:])
		}
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: all, one after another)")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measurement window per workload, seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end ones")
	traceOut := fs.String("trace-out", "", "spans file of a traced run (default under the build directory)")
	writeGolden := fs.Bool("write-golden", false, "rewrite bench/testdata/golden.json from direct engine analyses")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeGolden {
		if err := writeGoldenFile(filepath.Join("bench", "testdata", "golden.json")); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	p := profile{seconds: *seconds, setups: setupChildren}
	spans := func(w *workloadDef) string {
		switch {
		case *trace != 1:
			return ""
		case *traceOut != "" && *name != "":
			return *traceOut
		}
		return filepath.Join(workDir(), "trace", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
	}
	if *name == "" {
		return runAll(*seed, p, spans)
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	rep, err := runWorkload(w, *seed, p, spans(w))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// allRuns is the document a run of every workload prints, one line per
// run; compare reads files of these lines.
type allRuns struct {
	Seed      int64              `json:"seed"`
	Workloads map[string]*report `json:"workloads"`
}

func runAll(seed int64, p profile, spans func(*workloadDef) string) int {
	doc := allRuns{Seed: seed, Workloads: map[string]*report{}}
	code := 0
	for _, w := range workloads {
		rep, err := runWorkload(w, seed, p, spans(w))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		doc.Workloads[w.name] = rep
		if !rep.Correct {
			code = 1
		}
	}
	line, err := json.Marshal(doc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return code
}
