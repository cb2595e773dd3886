package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"flowcheck/internal/fleet"
	"flowcheck/internal/guest"
	"flowcheck/internal/ledger"
	"flowcheck/internal/serve"
	"flowcheck/internal/workload"
)

// spanHeader carries "op/span" from a traced caller to the handler it
// calls, which records its own span as a child of that one.
const spanHeader = "X-Bench-Span"

type spanRef struct {
	op   int64
	span int
}

type spanKey struct{}

func parseSpan(h string) (spanRef, bool) {
	var ref spanRef
	if h == "" {
		return ref, false
	}
	_, err := fmt.Sscanf(h, "%d/%d", &ref.op, &ref.span)
	return ref, err == nil
}

// traceHandler wraps a handler: a request that carries spanHeader gets a
// span of the given name, and its context carries that span to the calls
// the handler makes. Other requests pass straight through.
func traceHandler(rec *recorder, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ref, ok := parseSpan(r.Header.Get(spanHeader))
		if !ok || rec == nil {
			h.ServeHTTP(w, r)
			return
		}
		i := rec.begin(name, ref.op, ref.span)
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r.WithContext(context.WithValue(r.Context(), spanKey{}, spanRef{ref.op, i})))
		rec.finish(i, cw.n, false)
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += n
	return n, err
}

// traceTransport is the coordinator's transport seam: a shard call made
// for a traced request gets a "fleet.roundtrip" span, which ends once the
// response body has been read, and passes spanHeader on to the shard.
type traceTransport struct {
	base http.RoundTripper
	rec  *recorder
}

func (t *traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, ok := req.Context().Value(spanKey{}).(spanRef)
	if !ok {
		return t.base.RoundTrip(req)
	}
	i := t.rec.begin("fleet.roundtrip", ref.op, ref.span)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, fmt.Sprintf("%d/%d", ref.op, i))
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.rec.finish(i, 0, true)
		return nil, err
	}
	failed := resp.StatusCode != http.StatusOK
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func(abandoned bool) { t.rec.finish(i, 0, failed || abandoned) }}
	return resp, nil
}

// spanBody ends a round-trip span when its body is read to the end, or
// marks it abandoned when closed before that.
type spanBody struct {
	io.ReadCloser
	done func(abandoned bool)
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.done(err != io.EOF)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.done(true)
	return b.ReadCloser.Close()
}

// batchPrincipal is the principal fleet batches are charged to.
const batchPrincipal = "batch"

// fleetPrograms are what every shard registers.
var fleetPrograms = []*request{
	{Program: "sshauth"}, {Program: "count_punct"}, {Program: "xserver"},
	{Program: "calendar"}, {Program: "compress"}, {Program: "count_punct", Exact: true},
}

// fleetRig is fleet-http's system under test, all on loopback HTTP: a
// fleet coordinator in front of two serve shards, each with one worker, a
// 16 MiB stage cache and a volatile ledger.
type fleetRig struct {
	shards  []*serve.Service
	ledgers []*ledger.Ledger
	servers []*httptest.Server
	coord   *fleet.Coordinator
	front   *httptest.Server
	client  *http.Client
}

func newFleetRig(rec *recorder) (*fleetRig, error) {
	rig := &fleetRig{}
	var specs []fleet.ShardSpec
	for i := 0; i < 2; i++ {
		l, err := ledger.Open(ledger.Options{})
		if err != nil {
			rig.close()
			return nil, err
		}
		name := fmt.Sprintf("shard-%d", i)
		// The queue holds a batch's four runs per shard plus both clients'
		// requests, so a batch never sheds on its own fan-out.
		svc := serve.New(serve.Options{Workers: 1, QueueDepth: 16, CacheBytes: 16 << 20, Ledger: l, ShardName: name})
		for _, r := range fleetPrograms {
			svc.Register(r.name(), guest.Program(r.Program), r.config())
		}
		ts := httptest.NewServer(traceHandler(rec, "serve.handler", svc.Handler()))
		rig.shards = append(rig.shards, svc)
		rig.ledgers = append(rig.ledgers, l)
		rig.servers = append(rig.servers, ts)
		specs = append(specs, fleet.ShardSpec{Name: name, URL: ts.URL})
	}
	coord, err := fleet.New(fleet.Options{
		Shards:    specs,
		Transport: &traceTransport{base: http.DefaultTransport.(*http.Transport).Clone(), rec: rec},
	})
	if err != nil {
		rig.close()
		return nil, err
	}
	rig.coord = coord
	coord.Start()
	rig.front = httptest.NewServer(traceHandler(rec, "fleet.handler", coord.Handler()))
	rig.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	// Ready means every shard has passed a health probe.
	for deadline := time.Now().Add(10 * time.Second); ; {
		healthy := 0
		for _, sh := range coord.Stats().Shards {
			if sh.LastProbe != "" && sh.State == "healthy" {
				healthy++
			}
		}
		if healthy == len(specs) {
			return rig, nil
		}
		if time.Now().After(deadline) {
			rig.close()
			return nil, fmt.Errorf("fleet: %d of %d shards healthy after 10s", healthy, len(specs))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (rig *fleetRig) close() {
	if rig.front != nil {
		rig.front.Close()
	}
	if rig.coord != nil {
		rig.coord.Close()
	}
	for _, ts := range rig.servers {
		ts.Close()
	}
	if rig.client != nil {
		rig.client.CloseIdleConnections()
	}
}

func b64(b []byte) string { return base64.StdEncoding.EncodeToString(b) }

// post sends one JSON request to the coordinator and decodes the answer.
// A traced call opens the operation's root span and sends its reference.
func (rig *fleetRig) post(rec *recorder, o *opRec, path, span string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	hreq, err := http.NewRequest(http.MethodPost, rig.front.URL+path, bytes.NewReader(data))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if o.traced {
		i := rec.begin(span, o.id, -1)
		hreq.Header.Set(spanHeader, fmt.Sprintf("%d/%d", o.id, i))
		defer rec.finish(i, 0, false)
	}
	resp, err := rig.client.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(payload))
	}
	return json.Unmarshal(payload, out)
}

// analyze sends one single request through the fleet.
func (rig *fleetRig) analyze(rec *recorder, o *opRec) {
	r := o.req
	var ar serve.AnalyzeResponse
	o.start = time.Now()
	o.err = rig.post(rec, o, "/analyze", "client.analyze", serve.AnalyzeRequest{
		Program:   r.name(),
		Principal: r.Principal,
		SecretB64: b64(r.Secret),
		PublicB64: b64(r.Public),
	}, &ar)
	o.call = time.Since(o.start)
	o.due, o.lat = o.start, o.call
	o.out = outcome{bits: ar.Bits, rung: ar.Rung, trapped: ar.Trapped, steps: ar.Steps}
}

// batch sends one distributed batch through the fleet.
func (rig *fleetRig) batch(rec *recorder, o *opRec) {
	req := fleet.BatchRequest{Program: o.runs[0].name(), Principal: batchPrincipal}
	for _, r := range o.runs {
		req.Runs = append(req.Runs, fleet.RunInput{SecretB64: b64(r.Secret), PublicB64: b64(r.Public)})
	}
	var br fleet.BatchResponse
	o.start = time.Now()
	o.err = rig.post(rec, o, "/analyzebatch", "client.batch", req, &br)
	o.call = time.Since(o.start)
	o.due, o.lat = o.start, o.call
	o.out = outcome{bits: br.Bits, rung: br.Rung}
	for _, rs := range br.Runs {
		o.out.runBits = append(o.out.runBits, rs.Bits)
		if (rs.Error != "" || rs.Trapped) && o.out.runErr == nil {
			o.out.runErr = fmt.Errorf("run %d on %s: %s%s", rs.Run, rs.Shard, rs.Error, rs.Trap)
		}
	}
	if o.err == nil && br.MergedRuns != len(o.runs) && o.out.runErr == nil {
		o.out.runErr = fmt.Errorf("merged %d of %d runs", br.MergedRuns, len(o.runs))
	}
}

// runFleet is fleet-http: two closed-loop clients over loopback HTTP.
func runFleet(e *env) (*childReport, error) {
	for _, r := range fleetPrograms {
		e.oracle.analyzer(r).StaticBoundBits(0) // shared process-wide, so the shards' too
	}
	rig, err := newFleetRig(e.rec)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	if !e.ready() {
		return nil, nil
	}

	corpus := workload.PiWords(corpusBytes)
	gens := []*fleetGen{newFleetGen(e.seed, 0, corpus), newFleetGen(e.seed, 1, corpus)}
	var mu sync.Mutex
	var ops []*opRec
	nextID := []int64{0, 1}
	// op runs a client's i-th operation; ids interleave the two clients.
	op := func(c, i int, warm, traced bool) {
		g := gens[c].op(c, i)
		// Batches are rare enough to trace every one of a traced run's.
		traced = traced || g.batch != nil && !warm && e.rec != nil
		o := &opRec{id: nextID[c], req: g.single, runs: g.batch, warm: warm, traced: traced}
		nextID[c] += 2
		if g.batch != nil {
			rig.batch(e.rec, o)
		} else {
			rig.analyze(e.rec, o)
		}
		mu.Lock()
		ops = append(ops, o)
		mu.Unlock()
	}
	clients := func(body func(c int)) {
		var wg sync.WaitGroup
		for c := range gens {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				body(c)
			}(c)
		}
		wg.Wait()
	}
	warm := e.count(100, 20)
	clients(func(c int) {
		for i := 0; i < warm; i++ {
			op(c, i, true, false)
		}
	})
	before := shardStats(rig)
	cst0 := rig.coord.Stats()
	p0 := sampleProc()
	start := time.Now()
	heap := watchHeap(start)
	clients(func(c int) {
		for i := warm; time.Since(start) < e.window; i++ {
			op(c, i, false, e.traced(i-warm))
		}
	})
	window := time.Since(start)
	p1 := heap.end()
	cst1 := rig.coord.Stats()
	after := shardStats(rig)

	rep := &childReport{Metrics: map[string]float64{}}
	e.checkAll(rep, ops)
	e.checkLedger(rig.ledgers, ops, batchPrincipal)
	e.knownAnswers(func(r *request) (int64, error) {
		o := &opRec{req: r}
		rig.analyze(nil, o)
		return o.out.bits, o.err
	})
	win := measured(ops)
	var singles, batches []*opRec
	for _, o := range win {
		if o.runs != nil {
			batches = append(batches, o)
		} else {
			singles = append(singles, o)
		}
	}
	e.crossCheck(singles, "fleet")
	e.crossCheckBatches(ops)

	m := rep.Metrics
	latencyMetrics(m, singles, window)
	done := 0
	for _, o := range win {
		if o.err == nil {
			done++
		}
	}
	m["loadgen.ops_per_s"] = ratio(float64(done), window.Seconds()) // batches count too
	m["live_heap_mib"] = p1.liveHeapMiB
	m["process.peak_rss_mib"] = p1.peakRSSMiB
	if e.rec == nil {
		return rep, nil
	}
	var batchMS []float64
	for _, o := range batches {
		if o.err == nil {
			batchMS = append(batchMS, ms(o.lat))
		}
	}
	m["fleet.batch_p50_ms"] = median(batchMS)
	requests := float64(cst1.Requests - cst0.Requests)
	hedges := float64(cst1.HedgesFired - cst0.HedgesFired)
	m["fleet.hedges_per_req"] = ratio(hedges, requests)
	m["fleet.wasted_hedge_frac"] = ratio(hedges-float64(cst1.HedgeWins-cst0.HedgeWins), hedges)
	m["fleet.steals"] = float64(cst1.Steals - cst0.Steals)
	var most, total float64
	for i, sh := range cst1.Shards {
		n := float64(sh.Requests - cst0.Shards[i].Requests)
		total += n
		if n > most {
			most = n
		}
	}
	m["fleet.shard_skew"] = ratio(most, total/float64(len(cst1.Shards)))
	var shardReqs float64
	for i := range after {
		shardReqs += float64(after[i].Admitted-before[i].Admitted) + float64(after[i].CacheFastPath-before[i].CacheFastPath)
	}
	serviceLayers(m, before, after, shardReqs)
	procMetrics(m, p0, p1, len(win))

	timing := fleetTimings(e.rec)
	var handler, bytesOut, coordSelf, hop, batchSelf []float64
	for _, o := range win {
		t, ok := timing[o.id]
		if !ok || o.err != nil {
			continue
		}
		if o.runs != nil {
			batchSelf = append(batchSelf, ms(t.handler-t.longestShard))
			continue
		}
		if t.shard > 0 {
			handler = append(handler, us(t.shard))
			bytesOut = append(bytesOut, float64(t.bytes))
			coordSelf = append(coordSelf, us(t.handler-t.roundtrip))
			hop = append(hop, us(t.roundtrip-t.shard))
		}
	}
	m["serve.handler_us"] = median(handler)
	m["serve.response_bytes"] = ratio(sum(bytesOut), float64(len(bytesOut)))
	m["fleet.coord_self_us"] = median(coordSelf)
	m["fleet.hop_us"] = median(hop)
	m["fleet.batch_self_ms"] = median(batchSelf)
	e.traceMetrics(m, singles, 0)

	reqs := requestsOf(singles)
	e.probeVM(m, reqs)
	e.probeStatic(m, reqs)
	if err := e.probeLedger(m, ledger.Options{}, singles); err != nil {
		return nil, err
	}
	e.probeLookup(m, reqs, 16<<20)
	return rep, nil
}

func shardStats(rig *fleetRig) []serve.Stats {
	out := make([]serve.Stats, len(rig.shards))
	for i, s := range rig.shards {
		out[i] = s.Stats()
	}
	return out
}

// crossCheckBatches compares every fleet batch with the same batch run in
// process by the engine.
func (e *env) crossCheckBatches(ops []*opRec) {
	for _, o := range ops {
		if o.runs == nil || o.err != nil || o.out.runErr != nil {
			continue
		}
		joint, per, err := e.oracle.batch(context.Background(), o.runs)
		if err != nil || joint != o.out.bits || fmt.Sprint(per) != fmt.Sprint(o.out.runBits) {
			e.gate.failf("fleet batch %s: %d bits %v, engine %d %v (err %v)", batchKey(o.runs), o.out.bits, o.out.runBits, joint, per, err)
		}
	}
}

// fleetTiming is one traced fleet operation, read back from its spans.
type fleetTiming struct {
	handler      time.Duration
	roundtrip    time.Duration // the shard call that answered
	shard        time.Duration // that call's shard handler
	bytes        int           // and its response size
	longestShard time.Duration // batches: the longest shard handler
}

// fleetTimings walks the span tree of every traced operation: client span
// → coordinator handler → shard round trips → shard handlers.
func fleetTimings(rec *recorder) map[int64]fleetTiming {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	children := rec.children()
	out := map[int64]fleetTiming{}
	for i, s := range rec.spans {
		if s.Parent >= 0 || (s.Name != "client.analyze" && s.Name != "client.batch") || !rec.done(i) {
			continue
		}
		var t fleetTiming
		for _, h := range children[i] {
			t.handler = rec.spans[h].dur()
			for _, rt := range children[h] {
				for _, sh := range children[rt] {
					d := rec.spans[sh].dur()
					if d > t.longestShard {
						t.longestShard = d
					}
					if t.shard == 0 {
						t.roundtrip, t.shard, t.bytes = rec.spans[rt].dur(), d, rec.spans[sh].Bytes
					}
				}
			}
		}
		out[s.Op] = t
	}
	return out
}
