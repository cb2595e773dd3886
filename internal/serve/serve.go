// Package serve is the supervised analysis service: the layer that turns
// the one-shot engine into something that can sit behind heavy traffic.
// It wraps one engine.Analyzer per registered program and owns the
// behaviors a long-lived service needs and the engine deliberately does
// not have:
//
//   - Admission control: a bounded queue in front of a fixed worker pool.
//     Requests that cannot fit (queue full) or cannot make their deadline
//     given the queue depth and an EWMA of recent per-run latency are
//     refused immediately with a typed ErrOverload — before consuming a
//     worker — instead of timing out after wasting one.
//   - Budget escalation: a run is a deterministic function of its
//     program, inputs, configuration and fault plan, so only a larger
//     budget can change its outcome. An exceeded budget (engine.ErrBudget)
//     retries at once with every cap doubled, up to three attempts, and
//     with RetryDegraded a solver-degraded result retries with the solver
//     budget doubled. Nothing else retries: a step-limit trap is a
//     successful Result.Trap, and a guest fault, a cancellation or an
//     internal error would recur unchanged.
//   - A per-program circuit breaker that opens after consecutive
//     ErrInternal results, rejects fast while open, and half-open-probes
//     one request after a cooldown before closing again.
//   - Crash-isolated worker recycling, delegated to the engine: sessions
//     that recovered a panic or outgrew the engine's high-water mark
//     are discarded rather than pooled. Every request and retry on a
//     program draws on its one pool, whose churn engine.PoolStats counts.
//   - Graceful drain: StartDrain stops admitting, Drain waits for
//     in-flight work; the HTTP layer maps these onto /readyz and SIGTERM.
//
// Every request produces structured log lines carrying the program,
// attempt number, pipeline stage (for internal failures), any scripted
// fault injection, and the outcome — the observability contract the chaos
// soak tests grep.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flowcheck/internal/engine"
	"flowcheck/internal/fault"
	"flowcheck/internal/ledger"
	"flowcheck/internal/stagecache"
	"flowcheck/internal/vm"
)

// Typed rejection sentinels. OverloadError and BreakerOpenError carry
// detail and match these via errors.Is.
var (
	// ErrOverload marks a request shed by admission control — refused
	// before it consumed a worker, because the queue was full or its
	// deadline could not be met given the current backlog.
	ErrOverload = errors.New("serve: overloaded")
	// ErrBreakerOpen marks a request rejected because its program's
	// circuit breaker is open (recent consecutive internal failures).
	ErrBreakerOpen = errors.New("serve: circuit breaker open")
	// ErrDraining marks a request refused because the service is
	// shutting down.
	ErrDraining = errors.New("serve: draining")
	// ErrUnknownProgram marks a request naming an unregistered program.
	ErrUnknownProgram = errors.New("serve: unknown program")
	// ErrBadRequest marks a malformed request field (e.g. an unknown
	// precision name) — refused before the ledger or any analysis.
	ErrBadRequest = errors.New("serve: bad request")
)

// OverloadError says why admission refused a request.
type OverloadError struct {
	Reason  string        // "queue-full" or "deadline"
	Queued  int64         // queue depth observed at rejection
	EstWait time.Duration // estimated time to a result (deadline sheds)
}

func (e *OverloadError) Error() string {
	if e.Reason == "deadline" {
		return fmt.Sprintf("serve: overloaded (%s: estimated %v to a result, %d queued)", e.Reason, e.EstWait, e.Queued)
	}
	return fmt.Sprintf("serve: overloaded (%s: %d queued)", e.Reason, e.Queued)
}

func (e *OverloadError) Is(target error) bool { return target == ErrOverload }

// Options configures a Service. The zero value gets sensible defaults.
// The service reads time.Now, leaves session recycling to the engine's
// fixed high-water mark, runs a request at most three times, and opens a
// program's breaker for 500ms after three consecutive internal failures.
type Options struct {
	// Workers bounds concurrently running analyses (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests admitted but not yet running (default
	// 4×Workers). A full queue sheds with ErrOverload.
	QueueDepth int

	// RetryDegraded retries solver-budget-degraded (but successful)
	// results with the solver budget doubled, returning the degraded
	// result only if no retry produces an exact solve.
	RetryDegraded bool

	// Ledger, when non-nil, gates every request through the durable
	// leakage-budget ledger: a pessimistic estimate (8 bits per secret
	// byte — no run can reveal more than the whole secret) is charged
	// before the run, against the request's principal, and settled down to
	// the measured bound after. Over-budget requests are denied with
	// ledger.ErrBudgetExceeded before any analysis runs; ledger I/O faults
	// deny with ledger.ErrUnavailable unless the ledger is fail-open.
	// Cache-hit fast paths are charged too — a cached answer reveals the
	// same bits.
	Ledger *ledger.Ledger

	// CacheBytes, when positive, gives the service a shared
	// content-addressed stage cache of that byte budget, injected into
	// every registered program that does not bring its own
	// (engine.Config.Cache). Warm repeat requests are then answered from
	// the cache before admission queuing — no worker slot, no session.
	// Zero disables caching (the seed behavior).
	CacheBytes int64

	// ShardName, when set, identifies this process in a fleet: every
	// HTTP response carries it as the X-Flow-Shard header, so clients
	// and the coordinator can attribute answers (and failures) to
	// shards. Empty means a standalone service — no header.
	ShardName string

	// Logger receives the structured per-request log lines; nil disables
	// logging.
	Logger *slog.Logger
}

const (
	// maxAttempts bounds runs per request, first attempt included.
	maxAttempts = 3
	// breakerThreshold is how many consecutive ErrInternal results open a
	// program's circuit breaker.
	breakerThreshold = 3
	// breakerCooldown is how long an open breaker rejects before letting
	// one half-open probe through.
	breakerCooldown = 500 * time.Millisecond
)

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4 * o.Workers
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return o
}

// Request is one analysis request against a registered program.
type Request struct {
	// Program names a registered program.
	Program string
	// Principal identifies who is asking, for cumulative leakage
	// accounting (Options.Ledger). Empty means "anonymous" — all
	// unattributed requests share one budget, which errs toward denial.
	Principal string
	// Inputs is the execution's secret/public input pair.
	Inputs engine.Inputs
	// Budget, when non-nil, overrides the caps it sets (those above zero)
	// of the program's configured budget for this request; every other cap
	// stays the program's. The request runs on an analyzer sharing the
	// program's session pool. Budget-growth retries still apply on top.
	Budget *engine.Budget
	// Precision, when non-empty, overrides the program's precision-ladder
	// mode for this request: "trivial", "static", "full", or "adaptive"
	// (engine.ParsePrecision). Like Budget, a precision override runs on a
	// derived analyzer sharing the program's session pool; the cheap rungs
	// never execute the guest, and the static rung answers from the
	// process-global static cache.
	Precision string
	// AdaptiveThreshold is the adaptive mode's escalation threshold in
	// bits: the full solve runs only while the cheap bounds exceed it.
	AdaptiveThreshold int64
	// Classes, when non-empty, asks for per-secret-class disclosure bounds
	// (§10.1) alongside the joint result: the engine executes once and
	// solves one capacity view per class on the shared graph. The ledger is
	// charged the joint bound — not the per-class sum, which double-counts
	// crowded-out capacity. Class requests cannot combine with a Precision
	// override: the cheap rungs never execute, so there is no graph to
	// view.
	Classes []engine.SecretClass
	// IncludeGraph asks for the run's flow graph in Response.Result.Graph.
	// The request neither reads nor fills the result cache, whose entries
	// keep answers, not graphs; a run is deterministic, so its bits are
	// the same either way.
	IncludeGraph bool
}

// Response is a served analysis result.
type Response struct {
	Program string
	// Attempts is how many runs the request consumed (1 = no retries).
	Attempts int
	// Result is the engine's result for the successful attempt. For class
	// requests it is the joint (all-classes) result — the number the
	// ledger settles against.
	Result *engine.Result
	// Classes holds the per-class measurements for class requests, in
	// request order; nil otherwise.
	Classes []engine.ClassResult
	// SolverWork is the solver budget the request was posed under (its
	// override or the program's) before any retry growth; 0 is unlimited.
	SolverWork int64
}

// program is one registered program: its analyzer, whose session pool
// serves every request and retry, and its circuit breaker.
type program struct {
	name     string
	analyzer *engine.Analyzer
	br       breaker
	// retries counts this program's retried attempts (the per-program
	// slice of the service-wide Retried counter).
	retries atomic.Int64
}

// Service is the supervised analysis service. Create with New, add
// programs with Register, then call Analyze from any number of
// goroutines.
type Service struct {
	opts    Options
	log     *slog.Logger
	start   time.Time
	version string

	mu       sync.Mutex
	programs map[string]*program

	// brThreshold and brCooldown configure each program's breaker at
	// Register: breakerThreshold and breakerCooldown, unless a test has
	// lowered them (export_test.go's SetBreaker).
	brThreshold int
	brCooldown  time.Duration

	slots  chan struct{} // worker tokens; len() = running analyses
	queued atomic.Int64  // admitted, waiting for a worker

	// drainMu serializes admission against StartDrain: Analyze joins the
	// in-flight group under the read lock after re-checking the flag, so
	// Drain's Wait cannot race a late Add.
	drainMu   sync.RWMutex
	draining  atomic.Bool
	inflight  sync.WaitGroup
	inflightN atomic.Int64

	ewmaNS atomic.Int64 // EWMA of per-attempt latency, nanoseconds

	// cache is the shared content-addressed stage cache (Options.CacheBytes);
	// nil when disabled. cacheFast counts requests answered by the warm
	// fast path — deliberately outside the admitted/completed ledger, since
	// those requests never enter admission.
	cache     *stagecache.Cache
	cacheFast atomic.Int64

	// Counters for Stats; shed counts admission rejections, breakerRej
	// breaker rejections, started individual engine runs.
	admitted   atomic.Int64
	started    atomic.Int64
	completed  atomic.Int64
	failed     atomic.Int64
	retried    atomic.Int64
	shed       atomic.Int64
	breakerRej atomic.Int64
	// ledgerDenied counts budget denials, ledgerUnavail fail-closed
	// denials on ledger I/O faults.
	ledgerDenied  atomic.Int64
	ledgerUnavail atomic.Int64
	// rung counters attribute successful responses (cache hits included)
	// to the precision-ladder rung that produced their bound.
	rungTrivial atomic.Int64
	rungStatic  atomic.Int64
	rungFull    atomic.Int64
}

// buildVersion resolves the running binary's version: the module version
// when built from a tagged release, else the VCS revision (shortened),
// else "unknown" (tests and plain `go run`).
func buildVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	v := bi.Main.Version
	var rev string
	var dirty bool
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			rev = kv.Value
		case "vcs.modified":
			dirty = kv.Value == "true"
		}
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if rev != "" {
		if dirty {
			rev += "-dirty"
		}
		if v == "" || v == "(devel)" {
			return rev
		}
		return v + " (" + rev + ")"
	}
	if v == "" {
		return "unknown"
	}
	return v
}

// New creates a Service with the given options.
func New(opts Options) *Service {
	opts = opts.withDefaults()
	s := &Service{
		opts:        opts,
		log:         opts.Logger,
		start:       time.Now(),
		version:     buildVersion(),
		programs:    map[string]*program{},
		brThreshold: breakerThreshold,
		brCooldown:  breakerCooldown,
		slots:       make(chan struct{}, opts.Workers),
	}
	if opts.CacheBytes > 0 {
		s.cache = stagecache.New(stagecache.Options{MaxBytes: opts.CacheBytes})
	}
	return s
}

// Register adds (or replaces) a program under the given name.
func (s *Service) Register(name string, prog *vm.Program, cfg engine.Config) {
	if cfg.Cache == nil {
		cfg.Cache = s.cache // nil when caching is disabled
	}
	if cfg.Fault != nil && cfg.Cache != nil {
		// Fault injection makes runs non-reproducible, so the engine
		// refuses to cache them — which silently turns a warm service into
		// a cold one. Say so once, loudly, at registration.
		s.log.Warn("fault injection active: stage cache is bypassed for this program; "+
			"every request takes the slow path (results report cache=bypass/fault-injection)",
			"program", name)
	}
	p := &program{
		name:     name,
		analyzer: engine.New(prog, cfg),
		br:       breaker{name: name, threshold: s.brThreshold, cooldown: s.brCooldown},
	}
	s.mu.Lock()
	s.programs[name] = p
	s.mu.Unlock()
}

// Programs lists the registered program names, sorted.
func (s *Service) Programs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.programs))
	for n := range s.programs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (s *Service) lookup(name string) *program {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.programs[name]
}

// Analyze serves one request: ledger charge, breaker check, admission,
// then the run/retry loop on a worker slot. It is safe for concurrent
// use.
func (s *Service) Analyze(ctx context.Context, req Request) (*Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p := s.lookup(req.Program)
	if p == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownProgram, req.Program)
	}
	if _, err := engine.ParsePrecision(req.Precision); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if len(req.Classes) > 0 {
		if req.Precision != "" {
			return nil, fmt.Errorf("%w: classes cannot combine with a precision override (the cheap rungs never execute, so there is no graph to solve per class)", ErrBadRequest)
		}
		for _, c := range req.Classes {
			if c.Off < 0 || c.Len < 0 {
				return nil, fmt.Errorf("%w: class %q: negative offset or length", ErrBadRequest, c.Name)
			}
		}
	}
	inj := p.analyzer.Config().Fault.Run(0)

	// Leakage-budget gate: charge the pessimistic estimate durably before
	// anything runs — before even the cache fast path, since a cached
	// answer reveals the same bits a fresh run would. Whatever the request
	// then does (hit, run, shed, fail), the charge settles to the bits the
	// response actually carries: measured bits on success, zero on any
	// refusal or error (no program output was released).
	ch, err := s.chargeLedger(p, req, inj)
	if err != nil {
		return nil, err
	}
	resp, err := s.serveAdmitted(ctx, p, req, inj)
	s.settleLedger(ch, resp)
	return resp, err
}

// chargeLedger runs the admission-side half of the ledger protocol. A
// draining service refuses before touching the ledger: no charge, no WAL
// traffic, the same answer admit() would give a moment later.
func (s *Service) chargeLedger(p *program, req Request, inj fault.Injection) (*ledger.Charge, error) {
	if s.opts.Ledger == nil {
		return nil, nil
	}
	if s.draining.Load() {
		s.logOutcome(p, 0, "draining", 0, ErrDraining, inj)
		return nil, ErrDraining
	}
	principal := req.Principal
	if principal == "" {
		principal = "anonymous"
	}
	ch, err := s.opts.Ledger.Charge(principal, p.name, p.ledgerEstimate(req.Inputs))
	if err == nil {
		return ch, nil
	}
	switch {
	case errors.Is(err, ledger.ErrBudgetExceeded):
		s.ledgerDenied.Add(1)
		s.logOutcome(p, 0, "budget-exceeded", 0, err, inj)
	case errors.Is(err, ledger.ErrUnavailable):
		s.ledgerUnavail.Add(1)
		s.logOutcome(p, 0, "ledger-unavailable", 0, err, inj)
	default:
		s.logOutcome(p, 0, "ledger-error", 0, err, inj)
	}
	return nil, err
}

// settleLedger runs the response-side half: settle to the bits actually
// released. A settle failure never fails the response — the bits are
// already out — but it is logged loudly; the charge stays pending at its
// estimate, exactly what a crash-replay would reconstruct.
func (s *Service) settleLedger(ch *ledger.Charge, resp *Response) {
	if ch == nil {
		return
	}
	var bits int64
	if resp != nil && resp.Result != nil {
		bits = resp.Result.Bits
	}
	if err := s.opts.Ledger.Settle(ch, bits); err != nil {
		s.log.Error("ledger settle failed; charge stays pending at its estimate",
			"principal", ch.Principal, "program", ch.Program,
			"estimate_bits", ch.EstimateBits, "actual_bits", bits, "err", err)
	}
}

// ledgerEstimate is the pre-run charge: the program's static capacity
// bound, already capped at 8 bits per secret byte (the pre-ladder
// estimate), so adaptive queriers of read-little programs stop being
// over-charged. Sound for every rung: the flow network's source capacity
// is the secret bytes actually read (≤ min(static, 8·len)), the degraded
// trivial-cut bound min(source, sink) is no larger, and the cheap rungs
// report exactly one of these two numbers. The static analysis is served
// from the process-global cache, so the charge path stays a lookup.
func (p *program) ledgerEstimate(in engine.Inputs) int64 {
	return p.analyzer.StaticBoundBits(len(in.Secret))
}

// serveAdmitted is everything past the ledger gate: cache fast path,
// breaker check, admission, run/retry loop.
func (s *Service) serveAdmitted(ctx context.Context, p *program, req Request, inj fault.Injection) (*Response, error) {
	an := analyzerFor(p, req)
	// Warm-program fast path: a full cache hit is answered before the
	// breaker, the queue, and the worker pool — it costs one lookup and
	// touches no session. Budget and precision overrides always take the
	// slow path (the cheap precision rungs are themselves no-execution
	// answers); class requests re-solve their views on the engine's cached
	// class graph; a draining service refuses even warm requests (readyz
	// has already failed the balancer). With RetryDegraded, a cached
	// solver-degraded answer takes the slow path, which retries it.
	if an == p.analyzer && len(req.Classes) == 0 && !s.draining.Load() {
		if res, ok := an.Cached(req.Inputs); ok && !s.retriesDegraded(res) {
			s.cacheFast.Add(1)
			s.countRung(res.Rung)
			s.log.Info("analyze",
				"program", p.name,
				"attempt", 0,
				"outcome", "cache-hit",
				"bits", res.Bits,
				"rung", res.Rung,
				"cache", res.Cache.Disposition,
				"latency", res.Stages.Lookup,
			)
			return &Response{Program: p.name, Attempts: 0, Result: res, SolverWork: an.Config().Budget.SolverWork}, nil
		}
	}

	if err := p.br.allow(time.Now()); err != nil {
		s.breakerRej.Add(1)
		s.logOutcome(p, 0, "breaker-open", 0, err, inj)
		return nil, err
	}

	releaseSlot, err := s.admit(ctx)
	if err != nil {
		p.br.cancelProbe() // a reserved half-open probe never ran
		if errors.Is(err, ErrOverload) {
			s.shed.Add(1)
			s.logOutcome(p, 0, "shed", 0, err, inj)
		}
		return nil, err
	}
	s.admitted.Add(1)
	s.inflightN.Add(1)
	defer func() {
		releaseSlot()
		s.inflightN.Add(-1)
		s.inflight.Done()
	}()
	return s.attempts(ctx, p, an, req, inj)
}

// admit is the admission gate: it sheds when the queue is full or the
// request's deadline cannot be met, and otherwise waits for a worker
// slot. It returns the slot-release func. Shed requests never touch the
// slot channel — that is the "before consuming a worker" guarantee.
func (s *Service) admit(ctx context.Context) (release func(), err error) {
	for {
		q := s.queued.Load()
		if q >= int64(s.opts.QueueDepth) {
			return nil, &OverloadError{Reason: "queue-full", Queued: q}
		}
		if dl, ok := ctx.Deadline(); ok {
			if ewma := s.EWMALatency(); ewma > 0 {
				// Everyone queued ahead drains in waves of Workers runs of
				// ~EWMA each; then our own run takes ~EWMA.
				est := time.Duration(q/int64(s.opts.Workers)+1) * ewma
				if time.Now().Add(est).After(dl) {
					return nil, &OverloadError{Reason: "deadline", Queued: q, EstWait: est}
				}
			}
		}
		if !s.queued.CompareAndSwap(q, q+1) {
			continue // raced another admission; re-evaluate
		}
		break
	}
	defer s.queued.Add(-1)

	// Join the in-flight group under the drain lock: after StartDrain no
	// new request can slip past Drain's Wait.
	s.drainMu.RLock()
	if s.draining.Load() {
		s.drainMu.RUnlock()
		return nil, ErrDraining
	}
	s.inflight.Add(1)
	s.drainMu.RUnlock()

	select {
	case s.slots <- struct{}{}:
		return func() { <-s.slots }, nil
	case <-ctx.Done():
		s.inflight.Done()
		return nil, &engine.CancelError{Cause: ctx.Err()}
	}
}

// attempts is the run/retry loop for one admitted request posed to base,
// holding a worker slot throughout. Retries run at once: the run is
// deterministic, so waiting before one would change nothing but how long
// the slot is held.
func (s *Service) attempts(ctx context.Context, p *program, base *engine.Analyzer, req Request, inj fault.Injection) (*Response, error) {
	cfg := base.Config()
	var scale int64 = 1         // budget growth factor for this attempt
	var degraded *engine.Result // best degraded result seen so far
	var degradedAttempt int
	for attempt := 1; ; attempt++ {
		an := base
		if scale > 1 {
			an = base.With(growBudget(cfg.Budget, scale), cfg.Precision, cfg.AdaptiveThreshold)
		}
		s.started.Add(1)
		t0 := time.Now()
		var res *engine.Result
		var classes []engine.ClassResult
		var err error
		if len(req.Classes) > 0 {
			// One execution, one solve per class; the joint result carries
			// the ledger-relevant bound.
			var ca *engine.ClassAnalysis
			ca, err = an.AnalyzeClassSetContext(ctx, req.Inputs, req.Classes)
			if err == nil {
				res, classes = ca.Joint, ca.Classes
			}
		} else {
			res, err = an.AnalyzeContext(ctx, req.Inputs)
		}
		lat := time.Since(t0)
		s.observeLatency(lat)

		if err == nil {
			// Class requests never degraded-retry: the per-class views
			// would need their own budgets to be worth re-solving.
			if len(req.Classes) == 0 && s.retriesDegraded(res) && attempt < maxAttempts && cfg.Budget.SolverWork > 0 {
				// A degraded result is sound but loose; remember it and
				// retry with the solver budget grown. If no retry solves
				// exactly, the degraded bound is still the answer.
				degraded, degradedAttempt = res, attempt
				scale *= 2
				s.retried.Add(1)
				p.retries.Add(1)
				s.logOutcome(p, attempt, "degraded-retry", lat, nil, inj)
				continue
			}
			p.br.onSuccess(func(prev string) {
				s.log.Info("breaker closed", "program", p.name, "from", prev)
			})
			s.completed.Add(1)
			s.countRung(res.Rung)
			s.log.Info("analyze",
				"program", p.name,
				"attempt", attempt,
				"outcome", "ok",
				"bits", res.Bits,
				"rung", res.Rung,
				"degraded", res.Degraded,
				"trapped", res.Trap != nil,
				"cache", res.Cache.Disposition,
				"classes", len(classes),
				"latency", lat,
				"inject", inj.String(),
			)
			return &Response{Program: p.name, Attempts: attempt, Result: res, Classes: classes, SolverWork: cfg.Budget.SolverWork}, nil
		}

		// Feed the breaker before deciding on a retry.
		if errors.Is(err, engine.ErrInternal) {
			p.br.onInternal(time.Now(), func(consec int) {
				s.log.Warn("breaker opened", "program", p.name, "consecutive-internal", consec)
			})
		} else {
			p.br.onOther()
		}

		// Only an exceeded budget can pass under a larger one. A retry is
		// abandoned when one more EWMA-sized run cannot finish before the
		// deadline.
		retry := errors.Is(err, engine.ErrBudget) && attempt < maxAttempts
		if dl, ok := ctx.Deadline(); retry && ok && time.Now().Add(s.EWMALatency()).After(dl) {
			retry = false
		}
		if !retry {
			if degraded != nil {
				// A sound degraded bound beats an error: report it, noting
				// the attempts the exact retry burned.
				s.completed.Add(1)
				s.countRung(degraded.Rung)
				s.logOutcome(p, attempt, "degraded-kept", lat, err, inj)
				return &Response{Program: p.name, Attempts: degradedAttempt, Result: degraded, SolverWork: cfg.Budget.SolverWork}, nil
			}
			s.failed.Add(1)
			s.logOutcome(p, attempt, "failed", lat, err, inj)
			return nil, err
		}
		scale *= 2
		s.retried.Add(1)
		p.retries.Add(1)
		s.logOutcome(p, attempt, "retry", lat, err, inj)
	}
}

// retriesDegraded reports whether the service retries res under a larger
// solver budget. Only an executed solver-budget degradation can improve
// with more solver work; cheap-rung answers are degraded by design and
// retrying them would change nothing.
func (s *Service) retriesDegraded(res *engine.Result) bool {
	return s.opts.RetryDegraded && res.Degraded && res.Executed
}

// analyzerFor returns the analyzer a request is posed to: the program's
// own, or, for a Budget or Precision override or a graph request, one
// derived from it that shares its session pool, counters and static
// analysis.
func analyzerFor(p *program, req Request) *engine.Analyzer {
	if req.IncludeGraph {
		req.IncludeGraph = false
		return analyzerFor(p, req).Uncached()
	}
	if req.Budget == nil && req.Precision == "" {
		return p.analyzer
	}
	cfg := p.analyzer.Config()
	b, prec, thr := cfg.Budget, cfg.Precision, cfg.AdaptiveThreshold
	if o := req.Budget; o != nil {
		if o.MaxGraphNodes > 0 {
			b.MaxGraphNodes = o.MaxGraphNodes
		}
		if o.MaxGraphEdges > 0 {
			b.MaxGraphEdges = o.MaxGraphEdges
		}
		if o.MaxOutputBytes > 0 {
			b.MaxOutputBytes = o.MaxOutputBytes
		}
		if o.SolverWork > 0 {
			b.SolverWork = o.SolverWork
		}
	}
	if req.Precision != "" {
		prec, _ = engine.ParsePrecision(req.Precision) // validated in Analyze
		thr = req.AdaptiveThreshold
	}
	return p.analyzer.With(b, prec, thr)
}

// countRung attributes one successful response to the precision-ladder
// rung that produced its bound.
func (s *Service) countRung(rung string) {
	switch rung {
	case engine.RungTrivial:
		s.rungTrivial.Add(1)
	case engine.RungStatic:
		s.rungStatic.Add(1)
	default:
		s.rungFull.Add(1)
	}
}

// growBudget scales every cap of b by k; unlimited (zero) caps stay
// unlimited.
func growBudget(b engine.Budget, k int64) engine.Budget {
	b.MaxGraphNodes *= int(k)
	b.MaxGraphEdges *= int(k)
	b.MaxOutputBytes *= int(k)
	b.SolverWork *= k
	return b
}

// observeLatency folds one run's latency into the admission EWMA
// (alpha = 1/4; the first sample seeds it).
func (s *Service) observeLatency(d time.Duration) {
	for {
		old := s.ewmaNS.Load()
		nw := int64(d)
		if old != 0 {
			nw = old - old/4 + int64(d)/4
		}
		if s.ewmaNS.CompareAndSwap(old, nw) {
			return
		}
	}
}

// EWMALatency is the admission controller's current per-run latency
// estimate (zero until the first run completes).
func (s *Service) EWMALatency() time.Duration {
	return time.Duration(s.ewmaNS.Load())
}

// logOutcome emits the structured per-request line for non-ok outcomes,
// carrying the stage (for internal failures) and any scripted injection so
// chaos-sweep logs read back to their cause.
func (s *Service) logOutcome(p *program, attempt int, outcome string, lat time.Duration, err error, inj fault.Injection) {
	attrs := []any{
		"program", p.name,
		"attempt", attempt,
		"outcome", outcome,
		"stage", stageOf(err).String(),
		"inject", inj.String(),
	}
	if lat > 0 {
		attrs = append(attrs, "latency", lat)
	}
	if err != nil {
		attrs = append(attrs, "err", err.Error())
	}
	if outcome == "failed" {
		s.log.Warn("analyze", attrs...)
		return
	}
	s.log.Info("analyze", attrs...)
}

// stageOf extracts the pipeline stage of an internal failure.
func stageOf(err error) fault.Stage {
	var ie *engine.InternalError
	if errors.As(err, &ie) {
		return ie.Stage
	}
	return ""
}

// StartDrain stops admitting new requests (idempotent). In-flight
// requests keep running; Drain waits for them.
func (s *Service) StartDrain() {
	s.drainMu.Lock()
	first := !s.draining.Swap(true)
	s.drainMu.Unlock()
	if first {
		s.log.Info("service draining", "in-flight", s.inflightN.Load(), "queued", s.queued.Load())
	}
}

// Draining reports whether the service has stopped admitting requests.
func (s *Service) Draining() bool { return s.draining.Load() }

// Drain stops admission and waits for all in-flight requests to finish,
// or for ctx to expire.
func (s *Service) Drain(ctx context.Context) error {
	s.StartDrain()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.log.Info("service drained")
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted with %d requests in flight: %w", s.inflightN.Load(), ctx.Err())
	}
}

// ProgramStats is one program's health snapshot.
type ProgramStats struct {
	Name    string `json:"name"`
	Breaker string `json:"breaker"` // closed, open, half-open
	// ConsecutiveInternal is the breaker's current ErrInternal streak.
	ConsecutiveInternal int   `json:"consecutive_internal"`
	BreakerOpens        int64 `json:"breaker_opens"`
	// Retries is this program's share of the service-wide Retried counter.
	Retries int64            `json:"retries"`
	Pool    engine.PoolStats `json:"pool"`
}

// Stats is the service-wide health snapshot served on /healthz.
type Stats struct {
	// StartTime is when the process's Service was created (RFC 3339);
	// Version is the build's module version or VCS revision.
	StartTime       string `json:"start_time"`
	Version         string `json:"version"`
	UptimeMS        int64  `json:"uptime_ms"`
	Workers         int    `json:"workers"`
	QueueDepth      int    `json:"queue_depth"`
	Queued          int64  `json:"queued"`
	InFlight        int64  `json:"in_flight"`
	Admitted        int64  `json:"admitted"`
	Started         int64  `json:"started"` // engine runs, retries included
	Completed       int64  `json:"completed"`
	Failed          int64  `json:"failed"`
	Retried         int64  `json:"retried"`
	Shed            int64  `json:"shed"`
	BreakerRejected int64  `json:"breaker_rejected"`
	EWMALatencyUS   int64  `json:"ewma_latency_us"`
	Draining        bool   `json:"draining"`
	// CacheFastPath counts requests answered by the warm fast path; they
	// bypass admission, so they are not part of the admitted/completed
	// ledger. Cache snapshots the shared stage cache (nil when disabled).
	CacheFastPath int64             `json:"cache_fast_path"`
	Cache         *stagecache.Stats `json:"cache,omitempty"`
	// LedgerDenied counts requests denied over leakage budget,
	// LedgerUnavailable fail-closed denials on ledger I/O faults; Ledger
	// is the full ledger snapshot (nil when no ledger is configured).
	LedgerDenied      int64         `json:"ledger_denied"`
	LedgerUnavailable int64         `json:"ledger_unavailable"`
	Ledger            *ledger.Stats `json:"ledger,omitempty"`
	// Rung counters attribute successful responses (cache hits included)
	// to the precision-ladder rung that produced their bound.
	RungTrivial int64          `json:"rung_trivial"`
	RungStatic  int64          `json:"rung_static"`
	RungFull    int64          `json:"rung_full"`
	Programs    []ProgramStats `json:"programs"`
}

// Stats snapshots the service.
func (s *Service) Stats() Stats {
	st := Stats{
		StartTime:         s.start.UTC().Format(time.RFC3339),
		Version:           s.version,
		UptimeMS:          time.Since(s.start).Milliseconds(),
		Workers:           s.opts.Workers,
		QueueDepth:        s.opts.QueueDepth,
		Queued:            s.queued.Load(),
		InFlight:          s.inflightN.Load(),
		Admitted:          s.admitted.Load(),
		Started:           s.started.Load(),
		Completed:         s.completed.Load(),
		Failed:            s.failed.Load(),
		Retried:           s.retried.Load(),
		Shed:              s.shed.Load(),
		BreakerRejected:   s.breakerRej.Load(),
		EWMALatencyUS:     s.EWMALatency().Microseconds(),
		Draining:          s.draining.Load(),
		CacheFastPath:     s.cacheFast.Load(),
		LedgerDenied:      s.ledgerDenied.Load(),
		LedgerUnavailable: s.ledgerUnavail.Load(),
		RungTrivial:       s.rungTrivial.Load(),
		RungStatic:        s.rungStatic.Load(),
		RungFull:          s.rungFull.Load(),
	}
	if s.cache != nil {
		cst := s.cache.Stats()
		st.Cache = &cst
	}
	if s.opts.Ledger != nil {
		lst := s.opts.Ledger.Stats()
		st.Ledger = &lst
	}
	s.mu.Lock()
	progs := make([]*program, 0, len(s.programs))
	for _, p := range s.programs {
		progs = append(progs, p)
	}
	s.mu.Unlock()
	sort.Slice(progs, func(i, j int) bool { return progs[i].name < progs[j].name })
	for _, p := range progs {
		snap := p.br.snapshot()
		st.Programs = append(st.Programs, ProgramStats{
			Name:                p.name,
			Breaker:             snap.State,
			ConsecutiveInternal: snap.Consecutive,
			BreakerOpens:        snap.Opens,
			Retries:             p.retries.Load(),
			Pool:                p.analyzer.Pool(),
		})
	}
	return st
}
