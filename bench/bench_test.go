package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary as the
// child process runWorkload spawns.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

func loadSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesCode checks that BENCHMARK.json names exactly the
// workloads and metrics this program runs and reports.
func TestSpecMatchesCode(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), code %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, names, units, betters []string, code []metricSpec) {
		if len(names) != len(code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(names), len(code))
			return
		}
		for i, c := range code {
			if names[i] != c.Name || units[i] != c.Unit || betters[i] != c.Better {
				t.Errorf("%s %d: BENCHMARK.json %s %s %s, code %s %s %s", kind, i, names[i], units[i], betters[i], c.Name, c.Unit, c.Better)
			}
		}
	}
	var names, units, betters []string
	for _, m := range spec.EndToEnd {
		names, units, betters = append(names, m.Name), append(units, m.Unit), append(betters, m.Better)
		// Every gated metric must repeat within a tenth; set-up time, a few
		// milliseconds for most workloads, carries the largest bound.
		want := 0.10
		if m.Name == "setup_s" {
			want = 0.25
		}
		if m.Bound != want {
			t.Errorf("%s: bound %v, want %v", m.Name, m.Bound, want)
		}
	}
	check("end_to_end", names, units, betters, endToEnd)
	names, units, betters = nil, nil, nil
	for _, m := range spec.PerLayer {
		names, units, betters = append(names, m.Name), append(units, m.Unit), append(betters, m.Better)
	}
	check("per_layer", names, units, betters, perLayer)
}

// TestInputDigests checks that a seed fixes a workload's inputs: the same
// seed gives the same sequence, and seeds 1 and 2 differ.
func TestInputDigests(t *testing.T) {
	for _, w := range workloads {
		a, b, c := digest(w.name, 1, 32), digest(w.name, 1, 32), digest(w.name, 2, 32)
		if a != b {
			t.Errorf("%s: seed 1 gave digests %s and %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 both gave digest %s", w.name, a)
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4}, 1, 5},
		{[]float64{3, 1}, 0.5, 3.5},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestJudge checks compare's verdicts on lower-is-better runs.
func TestJudge(t *testing.T) {
	parent := []float64{100, 102, 98, 101, 99}
	wide := []float64{50, 100, 150, 200, 100}
	setup := []float64{0.003, 0.0042, 0.0031, 0.0036, 0.0029}
	for _, c := range []struct {
		parent, change []float64
		floor          float64
		want           string
	}{
		{parent, []float64{101, 99, 100, 98, 102}, 0, "unchanged"},
		{parent, []float64{80, 81, 79, 80, 82}, 0, "unchanged"}, // too few pairs to claim a gain
		{append(parent, parent...), []float64{80, 81, 79, 80, 82, 81, 80, 79, 82, 80}, 0, "improved"},
		{parent, []float64{115, 116, 114, 117, 113}, 0, "regressed"},
		{wide, []float64{100, 100, 100, 100, 100}, 0, "unresolved"},
		// A wide parent spread does not hide a median that moved the worse
		// way by more than the bound.
		{wide, []float64{150, 100, 200, 250, 150}, 0, "regressed"},
		// Under the floor, milliseconds of set-up neither regress nor leave
		// the verdict unresolved; tens of milliseconds more do regress.
		{setup, []float64{0.0045, 0.004, 0.005, 0.0042, 0.0039}, floors["setup_s"], "unchanged"},
		{setup, []float64{0.07, 0.071, 0.069, 0.072, 0.07}, floors["setup_s"], "regressed"},
	} {
		if got := judge(c.parent, c.change, "lower", 0.10, c.floor); got != c.want {
			t.Errorf("judge(%v, %v) = %s, want %s", c.parent, c.change, got, c.want)
		}
	}
}

// TestReconcile checks the span checks of a traced run on hand-made trees.
func TestReconcile(t *testing.T) {
	rec := &recorder{}
	add := func(name string, op int64, parent int, start, end int64) int {
		rec.spans = append(rec.spans, span{Name: name, Op: op, Parent: parent, Start: start, End: end})
		return len(rec.spans) - 1
	}
	// Op 1: stages cover 80 of the call's 100.
	call := add("engine.AnalyzeContext", 1, -1, 0, 100)
	add("taint.execute", 1, call, 20, 70)
	add("maxflow.solve", 1, call, 70, 100)
	// Op 2: two overlapping shard handlers under a hedged coordinator call,
	// the losing one ending after the operation; they cover 50 of 100.
	client := add("client.analyze", 2, -1, 200, 300)
	handler := add("fleet.handler", 2, client, 210, 290)
	for _, iv := range [][2]int64{{250, 280}, {260, 320}} {
		rt := add("fleet.roundtrip", 2, handler, iv[0]-5, iv[1]+5)
		add("serve.handler", 2, rt, iv[0], iv[1])
	}
	g := newGate()
	if got, want := rec.reconcile(g), 130.0/200; got != want || len(g.failures) != 0 {
		t.Errorf("reconcile = %v, failures %q; want %v and none", got, g.failures, want)
	}
	// A stage span that starts before its call: the engine reported more
	// stage time than the call took.
	add("taint.build", 1, call, -10, 20)
	if rec.reconcile(g); len(g.failures) != 1 {
		t.Errorf("failures %q, want one for taint.build", g.failures)
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that the output gate passes and every metric BENCHMARK.json names is
// reported with its unit.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	t.Setenv("BENCH_WORKDIR", t.TempDir())
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", w.name, traced), func(t *testing.T) {
				out := ""
				want := map[string]string{}
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
				if traced {
					out = filepath.Join(t.TempDir(), "spans.json")
					want = map[string]string{}
					for _, m := range spec.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				rep, err := runWorkload(w, 1, profile{seconds: 1, setups: 1, short: true}, out)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Errorf("correct %v, %d of %d operations failed", rep.Correct, rep.Failed, rep.Attempted)
				}
				for name, unit := range want {
					if m, ok := rep.Metrics[name]; !ok || m.Unit != unit {
						t.Errorf("metric %s reported as %+v, want unit %s", name, m, unit)
					}
				}
				if traced {
					if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
						t.Errorf("no spans written to %s (%v)", out, err)
					}
				}
			})
		}
	}
}
