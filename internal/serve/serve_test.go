package serve_test

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"flowcheck/internal/engine"
	"flowcheck/internal/fault"
	"flowcheck/internal/guest"
	"flowcheck/internal/lang"
	"flowcheck/internal/serve"
	"flowcheck/internal/vm"
)

func newService(t *testing.T, opts serve.Options) *serve.Service {
	t.Helper()
	svc := serve.New(opts)
	svc.Register("unary", guest.Program("unary"), engine.Config{})
	return svc
}

func req(secret ...byte) serve.Request {
	return serve.Request{Program: "unary", Inputs: engine.Inputs{Secret: secret}}
}

// waitFor polls cond for up to two seconds; soak-free synchronization for
// the admission tests.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestAnalyzeOK(t *testing.T) {
	svc := newService(t, serve.Options{})
	want, err := engine.Analyze(guest.Program("unary"), engine.Inputs{Secret: []byte{200}}, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := svc.Analyze(context.Background(), req(200))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", resp.Attempts)
	}
	if resp.Result.Bits != want.Bits {
		t.Fatalf("served bits %d != direct engine bits %d", resp.Result.Bits, want.Bits)
	}
	st := svc.Stats()
	if st.Admitted != 1 || st.Completed != 1 || st.Failed != 0 || st.Shed != 0 {
		t.Fatalf("stats after one success: %+v", st)
	}
	if st.EWMALatencyUS <= 0 {
		t.Fatal("EWMA latency not observed")
	}
}

func TestUnknownProgram(t *testing.T) {
	svc := newService(t, serve.Options{})
	_, err := svc.Analyze(context.Background(), serve.Request{Program: "nope"})
	if !errors.Is(err, serve.ErrUnknownProgram) {
		t.Fatalf("got %v, want ErrUnknownProgram", err)
	}
}

// TestQueueFullSheds pins the "before consuming a worker" guarantee: with
// the single worker held by a stalled run and the depth-1 queue occupied,
// a third request is refused with a typed queue-full OverloadError and no
// engine run is started for it.
func TestQueueFullSheds(t *testing.T) {
	svc := serve.New(serve.Options{Workers: 1, QueueDepth: 1})
	// Every run of "slow" stalls 300ms at step 1, holding the worker.
	svc.Register("slow", guest.Program("unary"), engine.Config{
		Fault: fault.NewPlan().Every(fault.Injection{StallAtStep: 1, StallFor: 300 * time.Millisecond}),
	})

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		svc.Analyze(context.Background(), serve.Request{Program: "slow", Inputs: engine.Inputs{Secret: []byte{1}}})
	}()
	waitFor(t, "worker occupied", func() bool { return svc.Stats().Started >= 1 })
	go func() {
		defer wg.Done()
		svc.Analyze(context.Background(), serve.Request{Program: "slow", Inputs: engine.Inputs{Secret: []byte{2}}})
	}()
	waitFor(t, "queue occupied", func() bool { return svc.Stats().Queued >= 1 })

	_, err := svc.Analyze(context.Background(), serve.Request{Program: "slow", Inputs: engine.Inputs{Secret: []byte{3}}})
	if !errors.Is(err, serve.ErrOverload) {
		t.Fatalf("got %v, want ErrOverload", err)
	}
	var oe *serve.OverloadError
	if !errors.As(err, &oe) || oe.Reason != "queue-full" {
		t.Fatalf("got %v, want queue-full OverloadError", err)
	}
	st := svc.Stats()
	if st.Shed != 1 {
		t.Fatalf("shed = %d, want 1", st.Shed)
	}
	if st.Started > 1 {
		t.Fatalf("shed request started an engine run (started=%d)", st.Started)
	}
	wg.Wait()
}

// TestDeadlineSheds: once the EWMA knows a run takes time, a request whose
// deadline the backlog estimate cannot meet is shed up front instead of
// being admitted to time out on a worker.
func TestDeadlineSheds(t *testing.T) {
	svc := newService(t, serve.Options{Workers: 1})
	if _, err := svc.Analyze(context.Background(), req(5)); err != nil {
		t.Fatal(err) // seeds the EWMA
	}
	if svc.EWMALatency() <= 0 {
		t.Fatal("EWMA not seeded")
	}

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	_, err := svc.Analyze(ctx, req(5))
	var oe *serve.OverloadError
	if !errors.As(err, &oe) || oe.Reason != "deadline" {
		t.Fatalf("got %v, want deadline OverloadError", err)
	}
	if st := svc.Stats(); st.Started != 1 {
		t.Fatalf("shed request started an engine run (started=%d)", st.Started)
	}
}

// TestRetryGrowsBudget: a real output-budget failure retries with the
// budget doubled each attempt and succeeds once it fits — here 64 → 128 →
// 256 against 200 output bytes, succeeding on attempt 3.
func TestRetryGrowsBudget(t *testing.T) {
	svc := serve.New(serve.Options{})
	svc.Register("unary", guest.Program("unary"), engine.Config{
		Budget: engine.Budget{MaxOutputBytes: 64},
	})

	want, err := engine.Analyze(guest.Program("unary"), engine.Inputs{Secret: []byte{200}}, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := svc.Analyze(context.Background(), req(200))
	if err != nil {
		t.Fatalf("request failed after retries: %v", err)
	}
	if resp.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", resp.Attempts)
	}
	if resp.Result.Bits != want.Bits {
		t.Fatalf("retried bits %d != unbudgeted bits %d", resp.Result.Bits, want.Bits)
	}
	if st := svc.Stats(); st.Retried != 2 || st.Completed != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// divZeroSrc faults on every input: a guest trap, not an analysis error.
const divZeroSrc = `
int main() {
    char b[1];
    read_secret(b, 1);
    putc(b[0]);
    return 100 / (b[0] - b[0]);
}
`

// TestRetryScope: only an exceeded budget retries, because only a larger
// budget can change a run's outcome. A step-limit trap and a guest fault
// are answered on the first attempt with Result.Trap set; an injected
// panic and a canceled context fail on it.
func TestRetryScope(t *testing.T) {
	faulty, err := lang.Compile("divzero.mc", divZeroSrc)
	if err != nil {
		t.Fatal(err)
	}
	unary := guest.Program("unary")
	for _, tc := range []struct {
		name     string
		prog     *vm.Program
		cfg      engine.Config
		timeout  time.Duration // request deadline; zero for none
		attempts int64
		wantErr  error // nil: the request succeeds
		stepTrap bool  // on success: Result.Trap is a step-limit trap
		trap     bool  // on success: Result.Trap is set
	}{
		{name: "output budget", prog: unary,
			cfg:      engine.Config{Budget: engine.Budget{MaxOutputBytes: 64}},
			attempts: 3},
		{name: "step limit", prog: unary, cfg: engine.Config{MaxSteps: 10},
			attempts: 1, trap: true, stepTrap: true},
		{name: "guest fault", prog: faulty, attempts: 1, trap: true},
		{name: "injected panic", prog: unary,
			cfg:      engine.Config{Fault: fault.NewPlan().Every(fault.Injection{PanicStage: fault.StageSolve})},
			attempts: 1, wantErr: engine.ErrInternal},
		{name: "canceled", prog: unary,
			cfg:      engine.Config{Fault: fault.NewPlan().Every(fault.Injection{StallAtStep: 1, StallFor: 100 * time.Millisecond})},
			timeout:  20 * time.Millisecond,
			attempts: 1, wantErr: engine.ErrCanceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := serve.New(serve.Options{})
			svc.Register("p", tc.prog, tc.cfg)
			ctx := context.Background()
			if tc.timeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, tc.timeout)
				defer cancel()
			}
			resp, err := svc.Analyze(ctx, serve.Request{Program: "p", Inputs: engine.Inputs{Secret: []byte{200}}})
			if st := svc.Stats(); st.Started != tc.attempts || st.Retried != tc.attempts-1 {
				t.Fatalf("started %d runs, retried %d; want %d and %d", st.Started, st.Retried, tc.attempts, tc.attempts-1)
			}
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("got %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if int64(resp.Attempts) != tc.attempts {
				t.Fatalf("attempts = %d, want %d", resp.Attempts, tc.attempts)
			}
			trap := resp.Result.Trap
			if (trap != nil) != tc.trap || errors.Is(trap, engine.ErrStepLimit) != tc.stepTrap {
				t.Fatalf("trap = %v, want trapped %v, step limit %v", trap, tc.trap, tc.stepTrap)
			}
		})
	}
}

// degradedWork is a solver budget under which unary's solve degrades and
// which reaches an exact solve within the three attempts a request gets:
// the solve needs 34–36 units, and 16 doubles to 64 on attempt 3.
const degradedWork = 16

// TestRetryDegraded: a solver-degraded (but sound) result retries with the
// solver budget doubled until the solve is exact.
func TestRetryDegraded(t *testing.T) {
	svc := serve.New(serve.Options{RetryDegraded: true})
	svc.Register("unary", guest.Program("unary"), engine.Config{
		Budget: engine.Budget{SolverWork: degradedWork},
	})
	want, err := engine.Analyze(guest.Program("unary"), engine.Inputs{Secret: []byte{200}}, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := svc.Analyze(context.Background(), req(200))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result.Degraded {
		t.Fatalf("result still degraded after %d attempts", resp.Attempts)
	}
	if resp.Attempts < 2 {
		t.Fatalf("attempts = %d, want ≥ 2 (first solve must have degraded)", resp.Attempts)
	}
	if resp.Result.Bits != want.Bits {
		t.Fatalf("bits %d != exact %d", resp.Result.Bits, want.Bits)
	}
}

// A solver-degraded answer served from the cache still retries with a
// grown solver budget: on the slow path, where a budget override always
// goes, and instead of the fast path, which would hand it back as is. A
// hit keeps no graph, so this rests on Result.Executed.
func TestRetryDegradedFromCache(t *testing.T) {
	svc := serve.New(serve.Options{RetryDegraded: true, CacheBytes: 1 << 20})
	svc.Register("unary", guest.Program("unary"), engine.Config{
		Budget: engine.Budget{SolverWork: degradedWork},
	})
	want, err := engine.Analyze(guest.Program("unary"), engine.Inputs{Secret: []byte{200}}, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	override := req(200)
	override.Budget = &engine.Budget{SolverWork: degradedWork}
	for i, r := range []serve.Request{req(200), req(200), override} {
		resp, err := svc.Analyze(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		res := resp.Result
		if res.Degraded || res.Bits != want.Bits || resp.Attempts != 3 {
			t.Fatalf("request %d: degraded %v, %d bits after %d attempts; want %d exact bits after 3", i, res.Degraded, res.Bits, resp.Attempts, want.Bits)
		}
		if wantDisp := map[bool]string{true: engine.CacheMiss, false: engine.CacheHit}[i == 0]; res.Cache.Disposition != wantDisp {
			t.Fatalf("request %d: disposition %q, want %q", i, res.Cache.Disposition, wantDisp)
		}
	}
}

// A solver budget given as a per-request override degrades and retries
// exactly like the program's own: growth applies on top of the override.
func TestRetryDegradedRequestBudget(t *testing.T) {
	svc := serve.New(serve.Options{RetryDegraded: true})
	svc.Register("unary", guest.Program("unary"), engine.Config{})
	want, err := engine.Analyze(guest.Program("unary"), engine.Inputs{Secret: []byte{200}}, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r := req(200)
	r.Budget = &engine.Budget{SolverWork: degradedWork}
	resp, err := svc.Analyze(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result.Degraded {
		t.Fatalf("result still degraded after %d attempts", resp.Attempts)
	}
	if resp.Attempts < 2 {
		t.Fatalf("attempts = %d, want ≥ 2 (first solve must have degraded)", resp.Attempts)
	}
	if resp.Result.Bits != want.Bits {
		t.Fatalf("bits %d != exact %d", resp.Result.Bits, want.Bits)
	}
}

// Without RetryDegraded the degraded result is returned as-is, first try.
func TestDegradedReturnedWithoutRetry(t *testing.T) {
	svc := serve.New(serve.Options{})
	svc.Register("unary", guest.Program("unary"), engine.Config{
		Budget: engine.Budget{SolverWork: 1},
	})
	resp, err := svc.Analyze(context.Background(), req(200))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Result.Degraded || resp.Attempts != 1 {
		t.Fatalf("degraded=%v attempts=%d, want degraded on attempt 1", resp.Result.Degraded, resp.Attempts)
	}
}

// TestBreakerOpensAndProbes: consecutive internal failures open the
// program's breaker, open rejects fast without touching the engine, the
// cooldown admits one half-open probe, and a failed probe reopens.
func TestBreakerOpensAndProbes(t *testing.T) {
	svc := serve.New(serve.Options{})
	serve.SetBreaker(svc, 2, 50*time.Millisecond)
	svc.Register("panicky", guest.Program("unary"), engine.Config{
		Fault: fault.NewPlan().Every(fault.Injection{PanicStage: fault.StageSolve}),
	})
	call := func() error {
		_, err := svc.Analyze(context.Background(), serve.Request{Program: "panicky", Inputs: engine.Inputs{Secret: []byte{3}}})
		return err
	}

	for i := 0; i < 2; i++ {
		if err := call(); !errors.Is(err, engine.ErrInternal) {
			t.Fatalf("call %d: got %v, want ErrInternal", i, err)
		}
	}
	err := call()
	if !errors.Is(err, serve.ErrBreakerOpen) {
		t.Fatalf("got %v, want ErrBreakerOpen", err)
	}
	var be *serve.BreakerOpenError
	if !errors.As(err, &be) || be.State != "open" || be.Consecutive != 2 {
		t.Fatalf("got %+v, want open breaker after 2 consecutive", be)
	}
	st := svc.Stats()
	if st.Started != 2 {
		t.Fatalf("breaker-rejected request started an engine run (started=%d)", st.Started)
	}
	if st.BreakerRejected != 1 || st.Programs[0].Breaker != "open" || st.Programs[0].BreakerOpens != 1 {
		t.Fatalf("stats: %+v", st)
	}

	time.Sleep(60 * time.Millisecond) // past the cooldown
	if err := call(); !errors.Is(err, engine.ErrInternal) {
		t.Fatalf("half-open probe: got %v, want the probe to run and fail", err)
	}
	if err := call(); !errors.Is(err, serve.ErrBreakerOpen) {
		t.Fatalf("after failed probe: got %v, want ErrBreakerOpen", err)
	}
	if st := svc.Stats(); st.Programs[0].BreakerOpens != 2 {
		t.Fatalf("failed probe did not reopen: %+v", st.Programs[0])
	}
}

// TestDrain: once draining, requests are refused with ErrDraining and
// Drain returns with nothing in flight.
func TestDrain(t *testing.T) {
	svc := newService(t, serve.Options{})
	if _, err := svc.Analyze(context.Background(), req(5)); err != nil {
		t.Fatal(err)
	}
	svc.StartDrain()
	if !svc.Draining() {
		t.Fatal("Draining() false after StartDrain")
	}
	if _, err := svc.Analyze(context.Background(), req(5)); !errors.Is(err, serve.ErrDraining) {
		t.Fatalf("got %v, want ErrDraining", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.InFlight != 0 || !st.Draining {
		t.Fatalf("stats after drain: %+v", st)
	}
}

// TestLogsCarryStageAndInjection: the structured failure line names the
// pipeline stage and renders the scripted injection — the observability
// contract the chaos sweeps grep.
func TestLogsCarryStageAndInjection(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	svc := serve.New(serve.Options{
		Logger: slog.New(slog.NewTextHandler(lockedWriter{&mu, &buf}, nil)),
	})
	svc.Register("panicky", guest.Program("unary"), engine.Config{
		Fault: fault.NewPlan().Every(fault.Injection{PanicStage: fault.StageBuild}),
	})
	if _, err := svc.Analyze(context.Background(), serve.Request{Program: "panicky", Inputs: engine.Inputs{Secret: []byte{3}}}); err == nil {
		t.Fatal("injected panic did not fail the request")
	}
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	for _, want := range []string{"outcome=failed", "stage=build", "inject=panic:build", "program=panicky", "attempt=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("log output missing %q:\n%s", want, out)
		}
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
