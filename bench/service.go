package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"flowcheck/internal/engine"
	"flowcheck/internal/guest"
	"flowcheck/internal/ledger"
	"flowcheck/internal/serve"
	"flowcheck/internal/stagecache"
)

const (
	// serviceRate is service-small's open-loop arrival rate.
	serviceRate = 500.0
	// ledgerRecords is how many records the parent writes to the durable
	// ledger before the child opens it, so set-up includes WAL replay.
	ledgerRecords = 20000
)

// prepareService pre-populates the child's durable ledger with seeded
// charge/settle pairs, unsynced and uncompacted so all of them are in the
// WAL the child replays.
func prepareService(dir string, seed int64) error {
	l, err := ledger.Open(ledger.Options{Dir: filepath.Join(dir, "ledger"), SyncEvery: -1, SnapshotEvery: -1})
	if err != nil {
		return err
	}
	rng := seedRNG(seed, 4)
	for i := 0; i < ledgerRecords/2; i++ {
		est := int64(8 + rng.Intn(1024))
		ch, err := l.Charge(fmt.Sprintf("p%02d", rng.Intn(50)), smallGuests[rng.Intn(len(smallGuests))], est)
		if err != nil {
			l.Close()
			return err
		}
		if err := l.Settle(ch, rng.Int63n(est+1)); err != nil {
			l.Close()
			return err
		}
	}
	return l.Close()
}

// serviceRig is service-small's system under test: an in-process
// serve.Service with two workers, a queue that never sheds, an 8 MiB stage
// cache and a durable ledger that syncs every append.
type serviceRig struct {
	svc    *serve.Service
	ledger *ledger.Ledger
	replay time.Duration
}

func newServiceRig(dir string) (*serviceRig, error) {
	t0 := time.Now()
	l, err := ledger.Open(ledger.Options{Dir: filepath.Join(dir, "ledger")})
	if err != nil {
		return nil, err
	}
	rig := &serviceRig{ledger: l, replay: time.Since(t0)}
	// The default queue of 4×Workers shed a few requests, in Poisson bursts,
	// in most runs at 500 rps, and a 64-deep one hundreds while the machine
	// ran at half speed. A workload must not fail, so the queue holds a
	// whole window: overload shows as latency, not as shed requests.
	rig.svc = serve.New(serve.Options{Workers: 2, QueueDepth: 1 << 16, CacheBytes: 8 << 20, Ledger: l})
	for _, name := range smallGuests {
		rig.svc.Register(name, guest.Program(name), engine.Config{})
	}
	return rig, nil
}

func serveRequest(r *request) serve.Request {
	return serve.Request{
		Program:           r.name(),
		Principal:         r.Principal,
		Inputs:            r.inputs(),
		Precision:         r.Precision,
		AdaptiveThreshold: r.Threshold,
		Classes:           r.Classes,
	}
}

// analyze serves one operation and records it.
func (rig *serviceRig) analyze(rec *recorder, o *opRec) {
	o.start = time.Now()
	resp, err := rig.svc.Analyze(context.Background(), serveRequest(o.req))
	end := time.Now()
	o.call, o.lat, o.err = end.Sub(o.start), end.Sub(o.due), err
	if err == nil {
		o.out = outcomeOf(resp.Result)
		o.out.classes = resp.Classes
		if resp.Classes != nil {
			// A class request answered from a cached class graph reports the
			// stage times of the execution that built the graph, often an
			// earlier request's (they can exceed this call), so its stages
			// are not this call's.
			o.out.stages = engine.StageStats{}
		}
	}
	if o.traced {
		root := rec.add("op", o.id, -1, o.due, end)
		rec.add("loadgen.lag", o.id, root, o.due, o.start)
		call := rec.add("serve.Analyze", o.id, root, o.start, end)
		rec.stages(o.id, call, end, o.out.stages, 1)
	}
}

// openLoop sends ops at their due times, each from its own goroutine so a
// slow answer never delays the next send, and waits for every answer. It
// returns the number still unanswered when the last one was sent.
func openLoop(ops []*opRec, send func(*opRec)) (backlog int) {
	var wg sync.WaitGroup
	var done atomic.Int64
	for _, o := range ops {
		if d := time.Until(o.due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(o *opRec) {
			defer wg.Done()
			send(o)
			done.Add(1)
		}(o)
	}
	backlog = len(ops) - int(done.Load())
	wg.Wait()
	return backlog
}

// schedule gives ops Poisson due times at rate per second from start.
func schedule(ops []*opRec, seed int64, stream int64, rate float64, start time.Time) {
	rng := seedRNG(seed, stream)
	var t float64
	for _, o := range ops {
		t += rng.ExpFloat64() / rate
		o.due = start.Add(time.Duration(t * float64(time.Second)))
	}
}

// runService is service-small: open-loop Poisson arrivals at 500 requests
// per second for the window, after a warm-up of a fixed number of
// requests at the same rate.
func runService(e *env) (*childReport, error) {
	rig, err := newServiceRig(e.dir)
	if err != nil {
		return nil, err
	}
	defer rig.ledger.Close()
	for _, name := range smallGuests {
		// Static analysis belongs to set-up: it is shared process-wide, so
		// warming it here serves the service's analyzers too.
		e.oracle.analyzer(&request{Program: name}).StaticBoundBits(0)
	}
	if !e.ready() {
		return nil, nil
	}

	gen := newServiceGen(e.seed)
	// The live heap climbs for about 5 s, 2500 requests, from a fresh
	// service before it levels off; the window starts after that.
	warm := e.count(3000, 20)
	rate := serviceRate
	if e.short {
		rate /= 10 // light enough for a race-detector build
	}
	// Lay out the stream: warm-up requests, then every request due within
	// the window that starts at the first measured request's due time.
	var ops []*opRec
	var offsets []float64
	rng := seedRNG(e.seed, 5)
	var t, windowStart float64
	for i := 0; ; i++ {
		t += rng.ExpFloat64() / rate
		if i == warm {
			windowStart = t
		}
		if i >= warm && t-windowStart >= e.window.Seconds() {
			break
		}
		offsets = append(offsets, t)
		ops = append(ops, &opRec{
			id:     int64(i),
			req:    gen.next(),
			warm:   i < warm,
			traced: i >= warm && e.traced(i-warm),
		})
	}
	start := time.Now().Add(10 * time.Millisecond)
	for i, o := range ops {
		o.due = start.Add(time.Duration(offsets[i] * float64(time.Second)))
	}

	st0 := rig.svc.Stats()
	p0 := sampleProc()
	heap := watchHeap(ops[warm].due)
	var queued []float64
	stopSampling := make(chan struct{})
	var sampling sync.WaitGroup
	if e.rec != nil {
		// Little's law needs the mean queue length: sample it every 10 ms.
		sampling.Add(1)
		go func() {
			defer sampling.Done()
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopSampling:
					return
				case <-tick.C:
					queued = append(queued, float64(rig.svc.Stats().Queued))
				}
			}
		}()
	}
	streamStart := time.Now()
	openLoop(ops, func(o *opRec) { rig.analyze(e.rec, o) })
	stream := time.Since(streamStart)
	close(stopSampling)
	sampling.Wait()
	p1 := heap.end()
	st1 := rig.svc.Stats()

	rep := &childReport{Metrics: map[string]float64{}}
	e.checkAll(rep, ops)
	e.knownAnswers(func(r *request) (int64, error) {
		resp, err := rig.svc.Analyze(context.Background(), serveRequest(r))
		if err != nil {
			return 0, err
		}
		return resp.Result.Bits, nil
	})
	win := measured(ops)
	e.crossCheck(win, "serve")

	m := rep.Metrics
	if len(win) == 0 {
		return nil, fmt.Errorf("no requests due in a %v window", e.window)
	}
	// The window lasts from the first measured request's due time to the
	// last answer, so a server that falls behind stretches it.
	last := win[0].due
	for _, o := range win {
		if end := o.start.Add(o.call); end.After(last) {
			last = end
		}
	}
	latencyMetrics(m, win, last.Sub(win[0].due))
	m["live_heap_mib"] = p1.liveHeapMiB
	m["process.peak_rss_mib"] = p1.peakRSSMiB
	if e.rec != nil {
		m["serve.max_rps"] = e.maxRPS(rig, gen)
	}
	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rig.svc.Drain(dctx); err != nil {
		e.gate.failf("drain: %v", err)
	}
	e.checkLedger([]*ledger.Ledger{rig.ledger}, ops, "")
	if e.rec == nil {
		return rep, nil
	}
	requests := float64(len(ops))
	engineLayers(m, win, 1, false)
	procMetrics(m, p0, p1, len(ops))
	serviceLayers(m, []serve.Stats{st0}, []serve.Stats{st1}, requests)
	ls0, ls1 := st0.Ledger, st1.Ledger
	m["ledger.syncs_per_req"] = float64(ls1.Syncs-ls0.Syncs) / requests
	m["ledger.appends_per_req"] = float64(ls1.Appends-ls0.Appends) / requests
	m["ledger.replay_ms"] = ms(rig.replay)
	admitted := float64(st1.Admitted-st0.Admitted) / stream.Seconds()
	m["serve.queue_wait_us"] = ratio(sum(queued)/math.Max(1, float64(len(queued))), admitted) * 1e6

	var self, lag []float64
	for _, o := range win {
		if o.traced && o.err == nil {
			if o.out.classes == nil {
				self = append(self, us(o.call-o.out.stages.Total))
			}
			lag = append(lag, ms(o.start.Sub(o.due)))
		}
	}
	m["serve.self_us"] = median(self)
	m["loadgen.lag_p99_ms"] = percentile(lag, 99)
	e.traceMetrics(m, win, 0)

	reqs := requestsOf(win)
	e.probeVM(m, reqs)
	e.probeStatic(m, reqs)
	if err := e.probeLedger(m, ledger.Options{Dir: filepath.Join(e.dir, "probe-ledger")}, win); err != nil {
		return nil, err
	}
	e.probeLookup(m, reqs, 8<<20)
	return rep, nil
}

// serviceLayers sums serve and stage-cache counters over one or more
// services between two snapshots each.
func serviceLayers(m map[string]float64, before, after []serve.Stats, requests float64) {
	var fast, retried, shed, created, recycled, evictions float64
	var result, skeleton stagecache.KindStats
	for i := range after {
		a, b := before[i], after[i]
		fast += float64(b.CacheFastPath - a.CacheFastPath)
		retried += float64(b.Retried - a.Retried)
		shed += float64(b.Shed - a.Shed)
		for _, p := range b.Programs {
			created += float64(p.Pool.Created)
			recycled += float64(p.Pool.Recycled)
		}
		if b.Cache != nil && a.Cache != nil {
			result = addKind(result, b.Cache.Kinds[engine.KindResult], a.Cache.Kinds[engine.KindResult])
			skeleton = addKind(skeleton, b.Cache.Kinds[engine.KindSkeleton], a.Cache.Kinds[engine.KindSkeleton])
			evictions += float64(b.Cache.Totals().Evictions - a.Cache.Totals().Evictions)
		}
	}
	m["serve.fast_path_frac"] = ratio(fast, requests)
	m["serve.retried"] = retried
	m["serve.shed"] = shed
	m["engine.sessions_created"] = created
	m["engine.sessions_recycled"] = recycled
	m["stagecache.result_hit_ratio"] = result.HitRatio()
	m["stagecache.skeleton_hit_ratio"] = skeleton.HitRatio()
	m["stagecache.evictions"] = evictions
}

// addKind adds the counter growth b−a of one cache kind to t.
func addKind(t, b, a stagecache.KindStats) stagecache.KindStats {
	t.Hits += b.Hits - a.Hits
	t.Misses += b.Misses - a.Misses
	t.Coalesced += b.Coalesced - a.Coalesced
	return t
}

// checkLedger checks that the ledgers never under-count: after the run,
// every (principal, program) pair's cumulative bits, summed over the
// ledgers, cover at least the bits served to it. A batch is charged run
// by run.
func (e *env) checkLedger(ledgers []*ledger.Ledger, ops []*opRec, batchPrincipal string) {
	type pair struct{ principal, program string }
	served := map[pair]int64{}
	for _, o := range ops {
		switch {
		case o.err != nil:
		case o.runs != nil:
			for _, bits := range o.out.runBits {
				served[pair{batchPrincipal, o.runs[0].name()}] += bits
			}
		default:
			served[pair{o.req.Principal, o.req.name()}] += o.out.bits
		}
	}
	for p, bits := range served {
		var got int64
		for _, l := range ledgers {
			got += l.Cumulative(p.principal, p.program)
		}
		if got < bits {
			e.gate.failf("ledger under-counts %s/%s: cumulative %d bits, served %d", p.principal, p.program, got, bits)
		}
	}
}

// knownAnswers checks the paper's two known answers through the system
// under test: the sshauth sample leaks its 128-bit digest, the count_punct
// sample 9 bits.
func (e *env) knownAnswers(ask func(*request) (int64, error)) {
	for prog, want := range map[string]int64{"sshauth": 128, "count_punct": 9} {
		s, p, _ := guest.SampleInputs(prog)
		bits, err := ask(&request{Program: prog, Principal: "known-answer", Secret: s, Public: p})
		if err != nil || bits != want {
			e.gate.failf("known answer %s: %d bits (err %v), want %d", prog, bits, err, want)
		}
	}
}

// crossChecks is how many distinct answers crossCheck compares.
const crossChecks = 64

// crossCheck compares a spread sample of the layer's answers with a direct
// engine analysis of the same request.
func (e *env) crossCheck(ops []*opRec, layer string) {
	seen := map[string]bool{}
	var sample []*opRec
	for _, o := range ops {
		if o.err != nil || o.req == nil || seen[o.req.key()] {
			continue
		}
		seen[o.req.key()] = true
		sample = append(sample, o)
	}
	n := e.count(crossChecks, 8)
	for i := 0; i < n && i < len(sample); i++ {
		o := sample[i*len(sample)/min(n, len(sample))]
		want, err := e.oracle.bits(context.Background(), o.req)
		if err != nil || want != o.out.bits {
			e.gate.failf("%s answer for %s %s: %d bits, engine %d (err %v)", layer, o.req.name(), o.req.key(), o.out.bits, want, err)
		}
	}
}

// probeLedger replays the run's charge/settle sequence on a fresh ledger
// with the same options and times each call.
func (e *env) probeLedger(m map[string]float64, opts ledger.Options, ops []*opRec) error {
	if opts.Dir != "" {
		defer os.RemoveAll(opts.Dir)
	}
	l, err := ledger.Open(opts)
	if err != nil {
		return err
	}
	defer l.Close()
	n := e.count(1000, 50)
	var charge, settle []float64
	for _, o := range ops {
		if len(charge) == n {
			break
		}
		if o.err != nil || o.req == nil {
			continue
		}
		est := e.oracle.static(o.req)
		t0 := time.Now()
		ch, err := l.Charge(o.req.Principal, o.req.name(), est)
		t1 := time.Now()
		if err != nil {
			return err
		}
		if err := l.Settle(ch, o.out.bits); err != nil {
			return err
		}
		charge = append(charge, us(t1.Sub(t0)))
		settle = append(settle, us(time.Since(t1)))
	}
	m["ledger.charge_us"] = median(charge)
	m["ledger.settle_us"] = median(settle)
	return nil
}

// probeLookup times result-cache hits: the run's plain requests go through
// fresh analyzers sharing one cache of the service's size, once to fill it
// and once more to hit.
func (e *env) probeLookup(m map[string]float64, reqs []*request, cacheBytes int64) {
	cache := stagecache.New(stagecache.Options{MaxBytes: cacheBytes})
	analyzers := map[string]*engine.Analyzer{}
	var plain []*request
	for _, r := range reqs {
		if r.Precision != "" || len(r.Classes) > 0 {
			continue
		}
		if len(plain) == e.count(200, 20) {
			break
		}
		plain = append(plain, r)
		if analyzers[r.name()] == nil {
			cfg := r.config()
			cfg.Cache = cache
			analyzers[r.name()] = engine.New(guest.Program(r.Program), cfg)
		}
	}
	ctx := context.Background()
	var lookups []float64
	for pass := 0; pass < 2; pass++ {
		for _, r := range plain {
			res, err := analyzers[r.name()].AnalyzeContext(ctx, r.inputs())
			if err == nil && pass == 1 && res.Cache.Disposition == engine.CacheHit {
				lookups = append(lookups, us(res.Stages.Lookup))
			}
		}
	}
	m["stagecache.lookup_us"] = median(lookups)
}

// maxRPS bisects, in log space over 100–3200 requests per second, for the
// highest open-loop rate the service sustains: p99 latency at most 20 ms,
// at most 1% of requests failed, and at most 1% still unanswered when the
// probe's last request was sent.
func (e *env) maxRPS(rig *serviceRig, gen *serviceGen) float64 {
	probes, length := 6, 1500*time.Millisecond
	if e.short {
		probes, length = 3, 250*time.Millisecond
	}
	lo, hi, best := 100.0, 3200.0, 0.0
	for k := 0; k < probes; k++ {
		rate := math.Sqrt(lo * hi)
		n := int(rate * length.Seconds())
		ops := make([]*opRec, n)
		for i := range ops {
			ops[i] = &opRec{id: int64(i), req: gen.next()}
		}
		schedule(ops, e.seed, 100+int64(k), rate, time.Now().Add(5*time.Millisecond))
		backlog := openLoop(ops, func(o *opRec) { rig.analyze(nil, o) })
		var lat []float64
		failed := 0
		for _, o := range ops {
			if o.err != nil {
				failed++
				continue
			}
			lat = append(lat, ms(o.lat))
		}
		ok := percentile(lat, 99) <= 20 && float64(failed) <= 0.01*float64(n) && float64(backlog) <= 0.01*float64(n)
		if ok {
			best, lo = rate, rate
		} else {
			hi = rate
		}
	}
	return best
}
