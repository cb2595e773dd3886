package engine_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"flowcheck/internal/engine"
	"flowcheck/internal/fault"
	"flowcheck/internal/flowgraph"
	"flowcheck/internal/guest"
	"flowcheck/internal/lang"
	"flowcheck/internal/taint"
	"flowcheck/internal/vm"
)

// spinProg compiles a guest that loops until something external (step
// limit, cancellation) stops it.
func spinProg(t *testing.T) *vm.Program {
	t.Helper()
	prog, err := lang.Compile("spin.mc", `
int main() {
    int i;
    i = 0;
    while (1) { i = i + 1; }
    return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func mustZeroLive(t *testing.T, a *engine.Analyzer) {
	t.Helper()
	if n := engine.LiveSessions(a); n != 0 {
		t.Fatalf("%d sessions leaked", n)
	}
}

// An exhausted step budget surfaces as a typed trap on the result, not an
// error: the truncated run is still soundly analyzable.
func TestStepLimitIsTypedTrapNotError(t *testing.T) {
	a := engine.New(guest.Program("unary"), engine.Config{MaxSteps: 50})
	res, err := a.Analyze(engine.Inputs{Secret: []byte{255}})
	if err != nil {
		t.Fatalf("step limit failed the run: %v", err)
	}
	if !errors.Is(res.Trap, engine.ErrStepLimit) {
		t.Fatalf("trap %v does not match ErrStepLimit", res.Trap)
	}
	if res.Steps != 50 {
		t.Fatalf("executed %d steps, want 50", res.Steps)
	}
	mustZeroLive(t, a)
}

func TestAnalyzeContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := engine.New(guest.Program("unary"), engine.Config{})
	_, err := a.AnalyzeContext(ctx, engine.Inputs{Secret: []byte{7}})
	if !errors.Is(err, engine.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want ErrCanceled wrapping context.Canceled", err)
	}
	mustZeroLive(t, a)
}

// A deadline must abort a guest stuck in an infinite loop mid-execution:
// the step-interval poll is the only thing that can stop it before the
// 2e9-step default limit.
func TestDeadlineAbortsSpinningGuest(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	a := engine.New(spinProg(t), engine.Config{})
	start := time.Now()
	_, err := a.AnalyzeContext(ctx, engine.Inputs{})
	if !errors.Is(err, engine.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want ErrCanceled wrapping context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, polling is not working", elapsed)
	}
	mustZeroLive(t, a)
}

func TestBatchContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := engine.New(guest.Program("unary"), engine.Config{})
	_, err := a.AnalyzeBatchContext(ctx, unaryInputs(1, 2, 3))
	if !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	mustZeroLive(t, a)
}

// Solver-budget exhaustion degrades instead of failing, on every path that
// solves a graph: a single run, a batch's joint bound, and each class of a
// class analysis. The answer falls back to the smaller trivial cut at that
// path's own capacities (the class view's, for a class) — sound, looser,
// with no flow or cut — and is marked with the trivial rung and a reason.
func TestSolverBudgetDegrades(t *testing.T) {
	budget := engine.Config{Budget: engine.Budget{SolverWork: 1}}
	exhaust := engine.Config{Fault: fault.NewPlan().Every(fault.Injection{ExhaustSolver: true})}
	type answer struct {
		name     string
		bits     int64
		trivial  int64
		rung     string
		degraded bool
		reason   string
		solved   bool // carries a flow or cut
	}
	single := func(cfg engine.Config) []answer {
		prog := guest.Program("unary")
		in := engine.Inputs{Secret: []byte{200}}
		exact, err := engine.Analyze(prog, in, engine.Config{})
		if err != nil {
			t.Fatal(err)
		}
		a := engine.New(prog, cfg)
		res, err := a.Analyze(in)
		if err != nil {
			t.Fatalf("solver exhaustion failed the run: %v", err)
		}
		mustZeroLive(t, a)
		if res.Bits < exact.Bits {
			t.Fatalf("degraded bound %d below exact max flow %d: unsound", res.Bits, exact.Bits)
		}
		return []answer{{"single", res.Bits, trivialCut(res.Graph, nil), res.Rung, res.Degraded, res.DegradedReason, res.Cut != nil}}
	}
	batch := func(cfg engine.Config) []answer {
		prog := guest.Program("unary")
		inputs := unaryInputs(3, 40, 200)
		exact, err := engine.AnalyzeBatch(prog, inputs, engine.Config{})
		if err != nil {
			t.Fatal(err)
		}
		a := engine.New(prog, cfg)
		res, err := a.AnalyzeBatch(inputs)
		if err != nil {
			t.Fatalf("solver exhaustion failed the batch: %v", err)
		}
		mustZeroLive(t, a)
		if res.Bits < exact.Bits {
			t.Fatalf("degraded joint bound %d below exact %d: unsound", res.Bits, exact.Bits)
		}
		return []answer{{"joint", res.Bits, trivialCut(res.Graph, nil), res.Rung, res.Degraded, res.DegradedReason, res.Cut != nil}}
	}
	classes := func(cfg engine.Config) []answer {
		prog := guest.Program("sshauth")
		in := engine.Inputs{Secret: []byte("0123456789abcdef")}
		set := []engine.SecretClass{{Name: "low", Off: 0, Len: 8}, {Name: "high", Off: 8, Len: 8}, {Name: "all", Off: 0, Len: 16}}
		exact, err := engine.AnalyzeClassSet(prog, in, set, engine.Config{})
		if err != nil {
			t.Fatal(err)
		}
		a := engine.New(prog, cfg)
		ca, err := a.AnalyzeClassSet(in, set)
		if err != nil {
			t.Fatal(err)
		}
		mustZeroLive(t, a)
		// The oracle's view: the attributed all-marked execution, run on a
		// bare tracker, and its per-class capacity overlay.
		tr := taint.New(taint.Options{AttributeSources: true})
		m := vm.NewMachine(prog)
		m.SecretIn = in.Secret
		tr.Attach(m)
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		g := tr.Graph()
		if len(g.Edges) != len(ca.Joint.Graph.Edges) {
			t.Fatalf("oracle graph has %d edges, the shared graph %d", len(g.Edges), len(ca.Joint.Graph.Edges))
		}
		srcMap := tr.SourceMap(g)
		var out []answer
		for i, cr := range ca.Classes {
			if cr.Err != nil {
				t.Fatalf("class %s: %v", cr.Class.Name, cr.Err)
			}
			if cr.Bits < exact.Classes[i].Bits {
				t.Fatalf("class %s: degraded bound %d below exact %d: unsound", cr.Class.Name, cr.Bits, exact.Classes[i].Bits)
			}
			view := srcMap.ClassView(g, flowgraph.ByteRange{Off: cr.Class.Off, Len: cr.Class.Len})
			out = append(out, answer{"class " + cr.Class.Name, cr.Bits, trivialCut(g, view), cr.Rung, cr.Degraded, cr.DegradedReason, cr.Cut != ""})
		}
		if out[0].trivial == out[2].trivial {
			t.Fatalf("class views do not change the trivial cut (%d); the case proves nothing", out[0].trivial)
		}
		return out
	}
	for _, tc := range []struct {
		name string
		run  func(engine.Config) []answer
		cfgs []engine.Config
	}{
		{"Analyze", single, []engine.Config{budget, exhaust}},
		{"AnalyzeBatch", batch, []engine.Config{budget}},
		{"AnalyzeClassSet", classes, []engine.Config{budget, exhaust}},
	} {
		for k, cfg := range tc.cfgs {
			for _, ans := range tc.run(cfg) {
				where := fmt.Sprintf("%s/%d %s", tc.name, k, ans.name)
				if ans.rung != engine.RungTrivial || !ans.degraded || ans.reason == "" {
					t.Errorf("%s: rung %q degraded %v reason %q, want a degraded trivial rung with a reason", where, ans.rung, ans.degraded, ans.reason)
				}
				if ans.solved {
					t.Errorf("%s: degraded answer still carries a flow or cut", where)
				}
				if ans.bits != ans.trivial {
					t.Errorf("%s: Bits %d != trivial-cut bound %d", where, ans.bits, ans.trivial)
				}
			}
		}
	}
}

// trivialCut recomputes the degradation fallback from a graph at the
// capacities of view (nil: the graph's own): min(capacity out of Source,
// capacity into Sink), each a genuine s-t cut and hence an upper bound on
// the max flow.
func trivialCut(g *flowgraph.Graph, view *flowgraph.CapacityView) int64 {
	var fromSource, intoSink int64
	for i, e := range g.Edges {
		c := view.Of(i, e.Cap)
		if e.From == flowgraph.Source {
			fromSource += c
		}
		if e.To == flowgraph.Sink {
			intoSink += c
		}
	}
	if intoSink < fromSource {
		return intoSink
	}
	return fromSource
}

// Graph caps are checked both mid-run (via the step-interval poll) and
// after Build; either way the run fails with ErrBudget.
func TestGraphBudgetExceeded(t *testing.T) {
	a := engine.New(guest.Program("sshauth"), engine.Config{
		Budget: engine.Budget{MaxGraphEdges: 50},
	})
	_, err := a.Analyze(engine.Inputs{Secret: []byte("0123456789abcdef")})
	if !errors.Is(err, engine.ErrBudget) {
		t.Fatalf("got %v, want ErrBudget", err)
	}
	var be *engine.BudgetError
	if !errors.As(err, &be) || be.Resource != "graph-edges" {
		t.Fatalf("got %v, want graph-edges BudgetError", err)
	}
	mustZeroLive(t, a)
}

// The mid-run hook stops a guest at the output cap long before it ends:
// the guest writes one byte per loop iteration across many 4096-step poll
// intervals, and the abort reports fewer output bytes than the whole run
// writes — the count the post-run re-check alone would report.
func TestOutputBudgetExceededMidRun(t *testing.T) {
	prog, err := lang.Compile("stream.mc", `
int main() {
    char buf[1];
    int i;
    read_secret(buf, 1);
    i = 0;
    while (i < 4000) { putc(buf[0]); i = i + 1; }
    return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	in := engine.Inputs{Secret: []byte{'*'}}
	full, err := engine.Analyze(prog, in, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Steps < 8*vm.DefaultCheckEvery {
		t.Fatalf("guest ran %d steps; the test needs a run well past one poll interval", full.Steps)
	}
	a := engine.New(prog, engine.Config{
		Budget: engine.Budget{MaxOutputBytes: 10},
	})
	_, err = a.Analyze(in)
	if !errors.Is(err, engine.ErrBudget) {
		t.Fatalf("got %v, want ErrBudget", err)
	}
	var be *engine.BudgetError
	if !errors.As(err, &be) || be.Resource != "output-bytes" {
		t.Fatalf("got %v, want output-bytes BudgetError", err)
	}
	if be.Used >= int64(len(full.Output)) {
		t.Fatalf("aborted with %d output bytes, the whole run's %d: the mid-run poll never fired", be.Used, len(full.Output))
	}
	mustZeroLive(t, a)
}

// The output cap must also catch a guest that finishes within one poll
// interval (unary runs ~2.8k steps, under the 4096-step default): the
// post-run re-check covers what the mid-run hook never saw.
func TestOutputBudgetExceededShortRun(t *testing.T) {
	a := engine.New(guest.Program("unary"), engine.Config{
		Budget: engine.Budget{MaxOutputBytes: 10},
	})
	_, err := a.Analyze(engine.Inputs{Secret: []byte{255}})
	if !errors.Is(err, engine.ErrBudget) {
		t.Fatalf("got %v, want ErrBudget", err)
	}
	mustZeroLive(t, a)
}

// Every pipeline stage's panic is recovered at the stage boundary into an
// ErrInternal naming the stage — and with one poisoned run in a batch the
// next run still succeeds, on a fresh session that replaced the
// quarantined one (see TestPanickedSessionQuarantined).
func TestStagePanicsRecovered(t *testing.T) {
	for _, stage := range []fault.Stage{fault.StageExecute, fault.StageBuild, fault.StageSolve, fault.StageReport} {
		t.Run(string(stage), func(t *testing.T) {
			a := engine.New(guest.Program("unary"), engine.Config{
				Workers: 1, // run 1 reuses run 0's just-panicked session
				Fault:   fault.NewPlan().ForRun(0, fault.Injection{PanicStage: stage}),
			})
			res, err := a.AnalyzeBatch(unaryInputs(3, 5))
			if err != nil {
				t.Fatalf("batch failed outright: %v", err)
			}
			if !errors.Is(res.Runs[0].Err, engine.ErrInternal) {
				t.Fatalf("run 0 err %v, want ErrInternal", res.Runs[0].Err)
			}
			var ie *engine.InternalError
			if !errors.As(res.Runs[0].Err, &ie) || ie.Stage != stage {
				t.Fatalf("run 0 err %v, want stage %q", res.Runs[0].Err, stage)
			}
			if res.Runs[1].Err != nil {
				t.Fatalf("run 1 poisoned by run 0: %v", res.Runs[1].Err)
			}
			if res.Bits <= 0 {
				t.Fatalf("surviving run produced no bound: %+v", res)
			}
			mustZeroLive(t, a)
		})
	}
}

// Single-run analysis returns the recovered panic as its error.
func TestStagePanicSingleRun(t *testing.T) {
	a := engine.New(guest.Program("unary"), engine.Config{
		Fault: fault.NewPlan().Every(fault.Injection{PanicStage: fault.StageSolve}),
	})
	_, err := a.Analyze(engine.Inputs{Secret: []byte{3}})
	if !errors.Is(err, engine.ErrInternal) {
		t.Fatalf("got %v, want ErrInternal", err)
	}
	mustZeroLive(t, a)
}

// batchSurvivors runs the poisoned batch at several worker counts and
// checks the result is identical each time: same joint bound, same cut,
// same surviving-run set. This is the determinism half of the batch
// isolation guarantee; run under -race it also checks the fan-out.
func batchSurvivors(t *testing.T, plan *fault.Plan, wantFailed map[int]error) {
	t.Helper()
	prog := guest.Program("unary")
	inputs := unaryInputs(0, 1, 2, 3, 5, 8, 13, 40, 100, 150, 200, 255)

	var first *engine.Result
	for _, w := range []int{1, 2, runtime.GOMAXPROCS(0), 7} {
		a := engine.New(prog, engine.Config{Workers: w, Fault: plan})
		res, err := a.AnalyzeBatch(inputs)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i, r := range res.Runs {
			want, shouldFail := wantFailed[i]
			switch {
			case shouldFail && r.Err == nil:
				t.Fatalf("workers=%d run %d: expected failure, got none", w, i)
			case shouldFail && want != nil && !errors.Is(r.Err, want):
				t.Fatalf("workers=%d run %d: err %v, want %v", w, i, r.Err, want)
			case !shouldFail && r.Err != nil:
				t.Fatalf("workers=%d run %d: unexpected err %v", w, i, r.Err)
			}
		}
		mustZeroLive(t, a)
		if first == nil {
			first = res
			continue
		}
		if res.Bits != first.Bits {
			t.Fatalf("workers=%d: bits %d != %d", w, res.Bits, first.Bits)
		}
		if got, want := res.CutString(), first.CutString(); got != want {
			t.Fatalf("workers=%d: cut %q != %q", w, got, want)
		}
	}

	// The joint bound over survivors must equal an honest batch over just
	// the surviving inputs: exclusion is clean removal, not contamination.
	var surviving []engine.Inputs
	for i, in := range inputs {
		if _, failed := wantFailed[i]; !failed {
			surviving = append(surviving, in)
		}
	}
	clean, err := engine.AnalyzeBatch(prog, surviving, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Bits != first.Bits {
		t.Fatalf("poisoned-batch bound %d != clean survivors' bound %d", first.Bits, clean.Bits)
	}
}

func TestBatchIsolatesInjectedTrap(t *testing.T) {
	// An injected trap reads as a genuine guest fault (nil: any failure),
	// which a batch excludes just like a typed error.
	batchSurvivors(t,
		fault.NewPlan().ForRun(3, fault.Injection{TrapAtStep: 5}),
		map[int]error{3: nil})
}

func TestBatchIsolatesBudgetExhaustion(t *testing.T) {
	batchSurvivors(t,
		fault.NewPlan().ForRun(2, fault.Injection{ExhaustResource: "output-bytes"}),
		map[int]error{2: engine.ErrBudget})
}

func TestBatchIsolatesStagePanic(t *testing.T) {
	batchSurvivors(t,
		fault.NewPlan().ForRun(5, fault.Injection{PanicStage: fault.StageBuild}),
		map[int]error{5: engine.ErrInternal})
}

func TestBatchAllRunsFailed(t *testing.T) {
	a := engine.New(guest.Program("unary"), engine.Config{
		Fault: fault.NewPlan().Every(fault.Injection{ExhaustResource: "output-bytes"}),
	})
	_, err := a.AnalyzeBatch(unaryInputs(1, 2, 3))
	if err == nil {
		t.Fatal("all-failed batch returned success")
	}
	if !errors.Is(err, engine.ErrBudget) {
		t.Fatalf("got %v, want ErrBudget reachable through the joined error", err)
	}
	mustZeroLive(t, a)
}

// An injected per-run solver exhaustion degrades that run like a real one.
func TestInjectedSolverExhaustionDegrades(t *testing.T) {
	a := engine.New(guest.Program("unary"), engine.Config{
		Fault: fault.NewPlan().Every(fault.Injection{ExhaustSolver: true}),
	})
	res, err := a.Analyze(engine.Inputs{Secret: []byte{40}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.Bits != trivialCut(res.Graph, nil) {
		t.Fatalf("injected solver exhaustion did not degrade: %+v", res)
	}
	mustZeroLive(t, a)
}

// Class analyses isolate failures the same way batches do.
func TestClassesIsolateFailure(t *testing.T) {
	a := engine.New(guest.Program("sshauth"), engine.Config{
		Fault: fault.NewPlan().ForRun(1, fault.Injection{PanicStage: fault.StageSolve}),
	})
	classes := []engine.SecretClass{
		{Name: "low", Off: 0, Len: 8},
		{Name: "high", Off: 8, Len: 8},
	}
	ca, err := a.AnalyzeClassSet(engine.Inputs{Secret: []byte("0123456789abcdef")}, classes)
	if err != nil {
		t.Fatal(err)
	}
	out := ca.Classes
	if !errors.Is(out[1].Err, engine.ErrInternal) {
		t.Fatalf("class 1 err %v, want ErrInternal", out[1].Err)
	}
	if out[0].Err != nil || out[0].Bits <= 0 {
		t.Fatalf("healthy class contaminated: %+v", out[0])
	}
	mustZeroLive(t, a)
}

// A random fault plan must never crash the process or leak a session,
// whatever it injects — the chaos half of the fault harness.
func TestRandomFaultPlansNeverCrash(t *testing.T) {
	prog := guest.Program("unary")
	inputs := unaryInputs(0, 3, 8, 40, 200)
	for seed := int64(0); seed < 16; seed++ {
		a := engine.New(prog, engine.Config{Fault: fault.Random(seed, len(inputs))})
		res, err := a.AnalyzeBatch(inputs)
		if err == nil && res.Bits < 0 {
			t.Fatalf("seed %d: negative bound", seed)
		}
		mustZeroLive(t, a)
	}
}
