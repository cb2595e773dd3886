package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"

	"flowcheck/internal/engine"
	"flowcheck/internal/guest"
	"flowcheck/internal/workload"
)

// request is one generated analysis request: everything the system under
// test receives for one operation.
type request struct {
	Program   string // guest name
	Exact     bool   // exact-mode graph; served under the name Program+".exact"
	Precision string // "" (full) or "adaptive"
	Threshold int64  // adaptive escalation threshold, bits
	Classes   []engine.SecretClass
	Principal string
	Secret    []byte
	Public    []byte
}

// name is the program name the request is registered and served under.
func (r *request) name() string {
	if r.Exact {
		return r.Program + ".exact"
	}
	return r.Program
}

func (r *request) inputs() engine.Inputs {
	return engine.Inputs{Secret: r.Secret, Public: r.Public}
}

// config is the engine configuration that answers the request directly.
func (r *request) config() engine.Config {
	var cfg engine.Config
	cfg.Taint.Exact = r.Exact
	if r.Precision != "" {
		p, err := engine.ParsePrecision(r.Precision)
		if err != nil {
			panic(err) // generators only emit valid names
		}
		cfg.Precision = p
		cfg.AdaptiveThreshold = r.Threshold
	}
	return cfg
}

// key identifies the request's answer: every field that determines the
// reported bits, and nothing else (the principal does not).
func (r *request) key() string {
	h := sha256.New()
	field := func(b []byte) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	field([]byte(r.name()))
	field([]byte(fmt.Sprintf("%s/%d/%d", r.Precision, r.Threshold, len(r.Classes))))
	for _, c := range r.Classes {
		field([]byte(fmt.Sprintf("%s:%d:%d", c.Name, c.Off, c.Len)))
	}
	field(r.Secret)
	field(r.Public)
	return hex.EncodeToString(h.Sum(nil)[:6])
}

// batchKey identifies a batch's joint answer.
func batchKey(runs []*request) string {
	h := sha256.New()
	h.Write([]byte("batch"))
	for _, r := range runs {
		h.Write([]byte(r.key()))
	}
	return hex.EncodeToString(h.Sum(nil)[:6])
}

// corpusBytes is the size of the pi-words corpus that compress windows are
// cut from. workload.PiWords is a quadratic-time spigot: 8 KiB takes about
// 0.2 s, 64 KiB about 14 s.
const corpusBytes = 8 << 10

// windows cuts seeded windows out of the corpus. Sizes are stratified: each
// round of n draws uses the n sizes evenly spaced over [lo, hi] once, in a
// seeded order, so every seed sees the same size mix and only the content
// and order vary. Latency percentiles then depend on the code, not on which
// sizes a seed happened to draw.
type windows struct {
	rng    *rand.Rand
	corpus []byte
	lo, hi int
	sizes  *deck
}

func newWindows(rng *rand.Rand, corpus []byte, lo, hi, n int) *windows {
	return &windows{rng: rng, corpus: corpus, lo: lo, hi: hi, sizes: evenDeck(rng, n)}
}

// size deals the next stratified size.
func (w *windows) size() int {
	return w.lo + w.sizes.deal()*(w.hi-w.lo)/(len(w.sizes.counts)-1)
}

// cut returns a window of n bytes at a seeded offset.
func (w *windows) cut(n int) []byte {
	off := w.rng.Intn(len(w.corpus) - n + 1)
	return w.corpus[off : off+n]
}

func (w *windows) next() []byte { return w.cut(w.size()) }

// seedRNG derives an independent stream for one generator of one seed.
func seedRNG(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// deck deals categories in exact proportions: every round holds category i
// counts[i] times, in a seeded order. A seed then changes the order of a
// workload's mix but not the mix itself, which would otherwise move the
// latency percentiles from seed to seed as much as a code change does.
type deck struct {
	rng    *rand.Rand
	counts []int
	cards  []int
}

func newDeck(rng *rand.Rand, counts ...int) *deck { return &deck{rng: rng, counts: counts} }

func (d *deck) deal() int {
	if len(d.cards) == 0 {
		for c, n := range d.counts {
			for ; n > 0; n-- {
				d.cards = append(d.cards, c)
			}
		}
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	c := d.cards[0]
	d.cards = d.cards[1:]
	return c
}

// evenDeck deals n categories equally often.
func evenDeck(rng *rand.Rand, n int) *deck {
	counts := make([]int, n)
	for i := range counts {
		counts[i] = 1
	}
	return newDeck(rng, counts...)
}

// exactGen is the exact-compress input sequence: one 768–1536 B window per
// operation.
type exactGen struct{ w *windows }

func newExactGen(seed int64, corpus []byte) *exactGen {
	return &exactGen{newWindows(seedRNG(seed, 1), corpus, 768, 1536, 16)}
}

func (g *exactGen) next() *request {
	return &request{Program: "compress", Exact: true, Secret: g.w.next()}
}

// batchGen is the collapsed-batch input sequence: eight windows of one size
// per operation, the size stratified over 512–1024 B across operations.
// Equal runs keep the two workers' shares even, so an operation's latency
// follows its size, as in exact-compress, rather than how the runs
// happened to split.
type batchGen struct{ w *windows }

const batchRuns = 8

func newBatchGen(seed int64, corpus []byte) *batchGen {
	return &batchGen{newWindows(seedRNG(seed, 2), corpus, 512, 1024, 16)}
}

func (g *batchGen) next() []*request {
	n := g.w.size()
	runs := make([]*request, batchRuns)
	for i := range runs {
		runs[i] = &request{Program: "compress", Secret: g.w.cut(n)}
	}
	return runs
}

// smallGuests are the service-small programs: every guest but compress.
var smallGuests = []string{
	"battleship", "calendar", "count_punct", "divzero", "guessnum",
	"imagefilter", "interp", "sshauth", "unary", "xserver",
}

// perturb returns a seeded variant of a guest's sample inputs that drives
// the same code paths and never traps: only bytes the guest treats as free
// data change, and structural bytes (lengths, counts, divisors) keep valid
// values.
func perturb(rng *rand.Rand, prog string) (secret, public []byte) {
	s, p, ok := guest.SampleInputs(prog)
	if !ok {
		panic("bench: no sample inputs for " + prog)
	}
	secret = append([]byte(nil), s...)
	public = append([]byte(nil), p...)
	flip := func(b []byte, from, to int, alphabet string, k int) {
		for ; k > 0; k-- {
			b[from+rng.Intn(to-from)] = alphabet[rng.Intn(len(alphabet))]
		}
	}
	const letters = "abcdefghijklmnopqrstuvwxyz"
	switch prog {
	case "count_punct":
		flip(secret, 0, len(secret), letters+" .?!,", 4)
	case "battleship":
		secret = workload.BattleshipSecret(rng.Int63n(1 << 20))
		shots := make([][2]byte, 4)
		for i := range shots {
			shots[i] = [2]byte{byte(rng.Intn(10)), byte(rng.Intn(10))}
		}
		public = workload.BattleshipShots(0, shots)
	case "sshauth", "interp":
		for k := 0; k < 4; k++ {
			secret[rng.Intn(len(secret))] = byte(rng.Intn(256))
		}
	case "imagefilter":
		secret = workload.Image(25, 25, rng.Int63n(1<<20))
	case "calendar":
		a := 16 + rng.Intn(12)
		b := a + 6 + rng.Intn(8)
		secret = workload.CalendarSecret([]workload.Appointment{
			{StartSlot: a, EndSlot: a + 1 + rng.Intn(4)},
			{StartSlot: b, EndSlot: b + 1 + rng.Intn(4)},
		})
	case "xserver":
		// Card and PIN digits of the paste buffer, then the drawn text;
		// the length byte at 32 stays.
		flip(secret, 5, 21, "0123456789", 3)
		flip(secret, 26, 30, "0123456789", 1)
		flip(secret, 33, len(secret), letters, 2)
	case "unary", "guessnum":
		secret[0] = byte(rng.Intn(256))
		if prog == "guessnum" {
			public[0] = byte(rng.Intn(256))
		}
	case "divzero":
		secret[0] = byte(rng.Intn(256))
		secret[4] = byte(1 + rng.Intn(255))
	default:
		panic("bench: no perturbation for " + prog)
	}
	return secret, public
}

// serviceGen is the service-small request sequence: the ten small guests
// with seeded perturbations; 30% of requests repeat an earlier one, and of
// the fresh ones 10% ask for two secret classes and 10% for adaptive
// precision. Requests come from 50 principals.
type serviceGen struct {
	rng                   *rand.Rand
	repeat, kind, program *deck
	history               []*request
}

func newServiceGen(seed int64) *serviceGen {
	rng := seedRNG(seed, 3)
	return &serviceGen{
		rng:     rng,
		repeat:  newDeck(rng, 7, 3),    // fresh, repeat
		kind:    newDeck(rng, 8, 1, 1), // plain, classes, adaptive
		program: evenDeck(rng, len(smallGuests)),
	}
}

func (g *serviceGen) next() *request {
	if g.repeat.deal() == 1 && len(g.history) > 0 {
		return g.history[g.rng.Intn(len(g.history))]
	}
	prog := smallGuests[g.program.deal()]
	secret, public := perturb(g.rng, prog)
	r := &request{
		Program:   prog,
		Principal: fmt.Sprintf("p%02d", g.rng.Intn(50)),
		Secret:    secret,
		Public:    public,
	}
	switch g.kind.deal() {
	case 1:
		if len(secret) >= 2 {
			half := len(secret) / 2
			r.Classes = []engine.SecretClass{
				{Name: "head", Off: 0, Len: half},
				{Name: "tail", Off: half, Len: len(secret) - half},
			}
		}
	case 2:
		r.Precision, r.Threshold = "adaptive", 64
	}
	g.history = append(g.history, r)
	return r
}

// fleetGuests are the fleet-http single-request programs besides compress.
var fleetGuests = []string{"sshauth", "count_punct", "xserver", "calendar"}

// fleetBatchEvery makes every 250th operation of client 0 a batch.
const fleetBatchEvery = 250

// fleetBatchRuns is the number of exact count_punct runs in a fleet batch.
const fleetBatchRuns = 16

// fleetGen is one fleet-http client's sequence: 70% of requests repeat an
// earlier one of the same client; fresh ones are 10% 512 B collapsed
// compress windows and otherwise a perturbed fleetGuests sample.
type fleetGen struct {
	rng                   *rand.Rand
	repeat, kind, program *deck
	corpus                []byte
	history               []*request
}

func newFleetGen(seed int64, client int, corpus []byte) *fleetGen {
	rng := seedRNG(seed, 10+int64(client))
	return &fleetGen{
		rng:     rng,
		repeat:  newDeck(rng, 3, 7), // fresh, repeat
		kind:    newDeck(rng, 9, 1), // guest, compress
		program: evenDeck(rng, len(fleetGuests)),
		corpus:  corpus,
	}
}

func (g *fleetGen) next() *request {
	if g.repeat.deal() == 1 && len(g.history) > 0 {
		return g.history[g.rng.Intn(len(g.history))]
	}
	r := &request{Principal: fmt.Sprintf("p%02d", g.rng.Intn(50))}
	if g.kind.deal() == 1 {
		off := g.rng.Intn(len(g.corpus) - 512 + 1)
		r.Program, r.Secret = "compress", g.corpus[off:off+512]
	} else {
		r.Program = fleetGuests[g.program.deal()]
		r.Secret, r.Public = perturb(g.rng, r.Program)
	}
	g.history = append(g.history, r)
	return r
}

// batch is a fleet batch: exact count_punct runs.
func (g *fleetGen) batch() []*request {
	runs := make([]*request, fleetBatchRuns)
	for i := range runs {
		s, p := perturb(g.rng, "count_punct")
		runs[i] = &request{Program: "count_punct", Exact: true, Secret: s, Public: p}
	}
	return runs
}

// op is a client's i-th fleet-http operation: a single request, or a batch
// when i is a batch slot of client 0.
func (g *fleetGen) op(client, i int) genOp {
	if client == 0 && (i+1)%fleetBatchEvery == 0 {
		return genOp{batch: g.batch()}
	}
	return genOp{single: g.next()}
}

// genOp is one generated operation: a single request or a batch.
type genOp struct {
	single *request
	batch  []*request
}

func (o genOp) key() string {
	if o.batch != nil {
		return batchKey(o.batch)
	}
	return o.single.key()
}

// sequence returns the first n operations of a workload's input sequence
// for a seed (n per client for fleet-http), exactly as a run generates
// them. It drives the input digest and the golden file.
func sequence(name string, seed int64, n int) []genOp {
	corpus := workload.PiWords(corpusBytes)
	var ops []genOp
	switch name {
	case "exact-compress":
		g := newExactGen(seed, corpus)
		for i := 0; i < n; i++ {
			ops = append(ops, genOp{single: g.next()})
		}
	case "collapsed-batch":
		g := newBatchGen(seed, corpus)
		for i := 0; i < n; i++ {
			ops = append(ops, genOp{batch: g.next()})
		}
	case "service-small":
		g := newServiceGen(seed)
		for i := 0; i < n; i++ {
			ops = append(ops, genOp{single: g.next()})
		}
	case "fleet-http":
		for c := 0; c < 2; c++ {
			g := newFleetGen(seed, c, corpus)
			for i := 0; i < n; i++ {
				ops = append(ops, g.op(c, i))
			}
		}
	default:
		panic("bench: unknown workload " + name)
	}
	return ops
}

// digest summarizes the first n operations of a workload's input sequence.
func digest(name string, seed int64, n int) string {
	h := sha256.New()
	for _, op := range sequence(name, seed, n) {
		h.Write([]byte(op.key()))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
