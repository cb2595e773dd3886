package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
)

// benchSpec is BENCHMARK.json at the repository root.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRuns reads a file of all-workload documents, one per line, and
// returns each workload's metric values in run order.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var doc allRuns
		if err := json.Unmarshal(sc.Bytes(), &doc); err != nil || doc.Workloads == nil {
			continue // not a result line
		}
		for w, rep := range doc.Workloads {
			if out[w] == nil {
				out[w] = map[string][]float64{}
			}
			for name, m := range rep.Metrics {
				out[w][name] = append(out[w][name], m.Value)
			}
		}
	}
	return out, sc.Err()
}

// floors are absolute tolerances under the relative bounds: a change of
// set-up time below 50 ms is no regression, however small set-up is. Most
// workloads set up in a few milliseconds, which move by a quarter from run
// to run with the machine.
var floors = map[string]float64{"setup_s": 0.05}

// judge compares the change's runs b with the parent's runs a of one
// metric, by the rule of choosing-metrics §8. The tolerance is the bound
// times the parent's median, or floor if that is larger. The verdict is
// regressed when b's median is worse than a's by more than the tolerance,
// however wide the spread; improved when b wins at least nine tenths of
// the run pairs and the medians differ by more than the parent's quartile
// spread, over at least ten pairs; unresolved when that spread is wider
// than the tolerance and not every b beats every a; otherwise unchanged.
func judge(a, b []float64, better string, bound, floor float64) string {
	sign := 1.0 // +1: lower is better
	if better == "higher" {
		sign = -1
	}
	medA, medB := median(a), median(b)
	q1, q3 := quartiles(a)
	pairs, wins := min(len(a), len(b)), 0
	for i := 0; i < pairs; i++ {
		if sign*(b[i]-a[i]) < 0 {
			wins++
		}
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	tol := max(bound*math.Abs(medA), floor)
	switch {
	case sign*(medB-medA) > tol:
		return "regressed"
	case pairs >= 10 && wins*10 >= 9*pairs && math.Abs(medB-medA) > q3-q1:
		return "improved"
	case q3-q1 > tol && !allBetter:
		return "unresolved"
	}
	return "unchanged"
}

// compareMain prints, for each workload and metric, each side's median
// and quartiles and the verdict: every end-to-end metric with its bound,
// then every per-layer metric both files hold (traced runs), which has no
// bound and so is only ever "improved" or "ungated". It exits non-zero when
// any end-to-end metric regressed.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-spec BENCHMARK.json] PARENT.json CHANGE.json")
		return 2
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	a, err := readRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	b, err := readRuns(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	fmt.Printf("%-16s %-28s %28s %28s %8s  %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change", "verdict")
	row := func(w, name string, va, vb []float64, verdict string) {
		fmt.Printf("%-16s %-28s %28s %28s %+7.1f%%  %s (n=%d/%d)\n", w, name,
			side(va), side(vb), 100*ratio(median(vb)-median(va), median(va)), verdict, len(va), len(vb))
	}
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-16s %-28s %28s %28s %8s  missing\n", w.Name, m.Name, "-", "-", "-")
				continue
			}
			floor := floors[m.Name]
			verdict := judge(va, vb, m.Better, m.Bound, floor)
			if verdict == "regressed" {
				code = 1
			}
			verdict = fmt.Sprintf("%s, bound %.0f%%", verdict, 100*m.Bound)
			if floor > 0 {
				verdict += fmt.Sprintf(" or %g %s", floor, m.Unit)
			}
			row(w.Name, m.Name, va, vb, verdict)
		}
		for _, m := range spec.PerLayer {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 || median(va) == 0 && median(vb) == 0 {
				continue // not traced, or a layer the workload does not use
			}
			verdict := "ungated"
			if judge(va, vb, m.Better, math.Inf(1), 0) == "improved" {
				verdict = "improved"
			}
			row(w.Name, m.Name, va, vb, verdict)
		}
	}
	return code
}

func side(v []float64) string {
	q1, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(v), q1, q3)
}
