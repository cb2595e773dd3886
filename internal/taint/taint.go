// Package taint implements the paper's dynamic analysis (§2–§4): bit-level
// secrecy tracking, value tagging, implicit-flow accounting with enclosure
// regions and an output chain, and flow-graph construction with optional
// collapsing by code location.
//
// A Tracker attaches to a vm.Machine as its Tracer. As the guest executes,
// the tracker maintains a shadow secrecy mask and a graph node for every
// register and memory byte derived from the secret input, and emits
// capacity-labelled edges into a builder. After (or during) the run, Graph
// produces a flowgraph whose Source→Sink maximum flow bounds the bits of
// secret information the execution revealed.
package taint

import (
	"cmp"
	"fmt"
	mathbits "math/bits"
	"slices"

	"flowcheck/internal/bits"
	"flowcheck/internal/flowgraph"
	"flowcheck/internal/maxflow"
	"flowcheck/internal/vm"
)

// Options configures a Tracker.
type Options struct {
	// Exact disables graph collapsing: every dynamic operation becomes its
	// own nodes and edges (§4.2's streaming mode). Memory then grows with
	// run time, so exact mode suits small runs, tests, and ablations. The
	// default (false) collapses edges by code location (§5.2).
	Exact bool

	// ContextSensitive labels edges with a 64-bit probabilistic
	// calling-context hash in addition to the instruction address
	// (Bond–McKinley, as in §3.2), trading graph size for precision.
	ContextSensitive bool

	// MaxDescriptors bounds the lazy large-region descriptors of §4.3
	// (default 40, each with at most 30 exceptions). A negative value
	// disables the lazy path entirely — the per-byte ablation of §4.3.
	MaxDescriptors int

	// WarnImplicit logs every implicit-flow operation that is not inside
	// an enclosure region — the mode §8 uses to find where annotations are
	// needed. A run keeps at most 1000 of them.
	WarnImplicit bool

	// SecretRanges restricts which byte offsets of the secret input stream
	// are treated as secret; nil means all of it. This implements the
	// paper's §10.1 "different kinds of secret": analyzing the same
	// execution once per class, with each class's range, measures each
	// secret's disclosure independently.
	SecretRanges []StreamRange

	// AttributeSources records, for every Source edge emitted, which
	// secret-stream byte offsets fed it and with how many bits, exposed
	// via Tracker.SourceMap after the graph is built. This is the
	// multi-commodity alternative to SecretRanges: mark everything in one
	// execution, then overlay per-class capacity views on the shared
	// graph (one execution, N class solves) instead of re-executing with
	// one ranging per class.
	AttributeSources bool
}

// StreamRange is a byte range of the secret input stream (§10.1).
type StreamRange struct {
	Off, Len int
}

// Probe observes the dynamic control-flow facts the static cross-checker
// (internal/static) validates against: tainted conditional branches,
// tainted indirect control transfers, and enclosure-region brackets. All
// PCs are instruction indices into the running program. A probe is
// per-run state: Reset detaches it, so the engine re-installs one before
// each execution it wants observed.
type Probe interface {
	// TaintedBranch reports a conditional branch on a secret condition.
	TaintedBranch(pc int)
	// TaintedIndirect reports an indirect jump (or return) through a
	// secret target.
	TaintedIndirect(pc int)
	// RegionEnter and RegionLeave bracket a dynamic enclosure region.
	RegionEnter(pc int)
	RegionLeave(pc int)
}

// Warning is a diagnostic produced during tracking.
type Warning struct {
	Site string
	Msg  string
}

func (w Warning) String() string { return w.Site + ": " + w.Msg }

// Snapshot records an intermediate flow measurement (the §8.1 real-time
// mode), taken at a __flownote() call.
type Snapshot struct {
	Steps       uint64
	OutputBytes int
	Bits        int64
}

// Stats summarizes tracker activity.
type Stats struct {
	Elements         int // graph elements (arena nodes) allocated
	LabelledEdges    int // distinct edge labels
	ImplicitEdges    int // implicit-flow edge events
	DescriptorFlush  int // lazy-region descriptor eliminations
	RegionsEntered   int
	AutoOutputs      int // undeclared written locations retagged at leaves
	OutputBytes      int
	SecretInputBytes int
}

type regionState struct {
	el       int32
	declared []vm.Range
	active   bool
	enterPC  uint32

	// auto records written-but-undeclared locations for the dynamic
	// soundness check. Stack writes within the current frame (between SP
	// and BP at write time) are coalesced into one min/max range so loops
	// don't pay a set insertion per byte; the live part (at or above SP at
	// leave) is retagged. Data-segment and above-frame writes are tracked
	// exactly, up to autoTrackLimit distinct addresses.
	auto         autoSet // non-stack writes
	stackLo      vm.Word // frame-write range (stackLo < stackHi)
	stackHi      vm.Word
	autoOverflow bool
	autoLo       vm.Word
	autoHi       vm.Word

	// lastDecl caches the index of the declared range the previous write
	// hit: loops write the same output ranges repeatedly.
	lastDecl int
}

const autoTrackLimit = 4096

// autoSet is a set of guest addresses: one bitmap per 4 KiB page, the
// pages sorted by page number. Bitmaps come from and return to the
// tracker's spare list, so regions reuse them.
type autoSet struct {
	pages []autoPage
	last  int // index of the page the previous insertion hit
	n     int // distinct addresses
}

type autoPage struct {
	key  vm.Word // page number
	bits *autoBits
}

type autoBits [vm.PageSize / 64]uint64

// addAuto inserts the n addresses from a into s.
func (t *Tracker) addAuto(s *autoSet, a vm.Word, n int) {
	for n > 0 {
		key := a >> vm.PageShift
		if s.last >= len(s.pages) || s.pages[s.last].key != key {
			i, found := slices.BinarySearchFunc(s.pages, key, func(p autoPage, k vm.Word) int { return cmp.Compare(p.key, k) })
			if !found {
				var b *autoBits
				if k := len(t.autoSpare); k > 0 {
					b, t.autoSpare = t.autoSpare[k-1], t.autoSpare[:k-1]
				} else {
					b = new(autoBits)
				}
				s.pages = slices.Insert(s.pages, i, autoPage{key: key, bits: b})
			}
			s.last = i
		}
		// The addresses that fall in one bitmap word go in at once.
		off := a & (vm.PageSize - 1)
		k := min(n, 64-int(off%64))
		bits := (uint64(1)<<k - 1) << (off % 64)
		w := &s.pages[s.last].bits[off/64]
		s.n += mathbits.OnesCount64(bits &^ *w)
		*w |= bits
		a, n = a+vm.Word(k), n-k
	}
}

// ranges appends s's addresses to out as ascending maximal ranges.
func (s *autoSet) ranges(out []vm.Range) []vm.Range {
	base := len(out)
	for _, p := range s.pages {
		for wi, w := range p.bits {
			for w != 0 {
				a := p.key<<vm.PageShift + vm.Word(wi*64+mathbits.TrailingZeros64(w))
				w &= w - 1
				if n := len(out); n > base && out[n-1].Addr+out[n-1].Len == a {
					out[n-1].Len++
				} else {
					out = append(out, vm.Range{Addr: a, Len: 1})
				}
			}
		}
	}
	return out
}

// releaseAuto empties s, returning its bitmaps to the spare list.
func (t *Tracker) releaseAuto(s *autoSet) {
	for i := range s.pages {
		b := s.pages[i].bits
		*b = autoBits{}
		t.autoSpare = append(t.autoSpare, b)
		s.pages[i].bits = nil
	}
	s.pages, s.last, s.n = s.pages[:0], 0, 0
}

// Tracker implements vm.Tracer.
type Tracker struct {
	opts Options
	m    *vm.Machine
	b    *builder
	sh   *shadowMem

	regEl   [vm.NumRegs]int32
	regMask [vm.NumRegs]bits.Mask

	regions   []regionState
	autoSpare []*autoBits
	chainEl   int32

	ctx      uint64
	ctxStack []uint64

	regionCanon map[flowgraph.Key]int32

	warnings  []Warning
	snapshots []Snapshot
	stats     Stats
	probe     Probe

	// secPos tracks the secret stream offset for SecretRanges filtering.
	secPos int
}

// New creates a tracker.
func New(opts Options) *Tracker {
	t := &Tracker{
		opts:        opts,
		b:           newBuilder(opts.Exact, opts.AttributeSources),
		sh:          newShadowMem(opts.MaxDescriptors, defaultMaxExceptions),
		regionCanon: map[flowgraph.Key]int32{},
	}
	t.chainEl = t.b.ar.AddNode()
	return t
}

// Attach installs the tracker as m's tracer.
func (t *Tracker) Attach(m *vm.Machine) {
	t.m = m
	m.Tracer = t
}

// Reset prepares the tracker for another execution while keeping the
// accumulated graph. In collapsed mode, edges of the new run merge with the
// old ones by label — the multi-run combination of §3.2, applied online —
// so the final graph's maximum flow is jointly sound for all runs analyzed.
// The shadow memory's pages go to its spare list and its page table, if it
// has one, stays allocated; both are reused by the next run's non-public
// writes. The bitmaps of open regions' write sets go to a spare list too.
func (t *Tracker) Reset() {
	t.sh.reset()
	for i := range t.regEl {
		t.regEl[i] = 0
		t.regMask[i] = 0
	}
	for i := range t.regions {
		t.releaseAuto(&t.regions[i].auto)
	}
	t.regions = t.regions[:0]
	t.ctx = 0
	t.ctxStack = t.ctxStack[:0]
	t.secPos = 0
	t.m = nil
	t.probe = nil
}

// SetProbe installs (or, with nil, detaches) a dynamic-event observer for
// the next execution. Reset and ResetAll detach it.
func (t *Tracker) SetProbe(p Probe) { t.probe = p }

// ResetAll reinitializes the tracker for an unrelated execution, discarding
// the accumulated graph, canonical elements, and diagnostics — unlike
// Reset, which keeps them so successive runs merge online (§3.2). The
// engine's pooled sessions call this between independent runs; the parallel
// batch path then re-establishes §3.2 soundness by merging the per-run
// graphs offline, by label. The builder is emptied in place, keeping its
// arena's key index and union-find storage; the arena's edge store went
// to the last Graph, so the run's first edge allocates a new one, sized
// for the largest recent run.
func (t *Tracker) ResetAll() {
	t.Reset()
	t.b.reset()
	t.chainEl = t.b.ar.AddNode()
	clear(t.regionCanon)
	// Diagnostics escape into Results; release rather than truncate.
	t.warnings = nil
	t.snapshots = nil
	t.stats = Stats{}
}

// Graph builds the flow graph of the finished execution without copying
// it: the graph takes over the arena's edge store. Stats, MemStats and
// GraphSize still report the execution, but the tracker must not run
// again before ResetAll.
func (t *Tracker) Graph() *flowgraph.Graph { return t.b.ar.Take() }

// SourceMap extracts the Source-edge attribution of a graph built by this
// tracker (Options.AttributeSources; nil otherwise): for each Source edge
// of g, the secret-stream bytes that fed it. A collapsed graph's Source
// edges look theirs up by key; an exact graph's k-th Source edge has the
// k-th recorded contribution, and a graph whose Source edges do not
// number the recorded ones gets none. Source edges with no recorded
// attribution are left out of the map and thus keep full capacity in
// every class view, which is conservative.
func (t *Tracker) SourceMap(g *flowgraph.Graph) *flowgraph.SourceMap {
	if !t.b.attribute {
		return nil
	}
	m := &flowgraph.SourceMap{}
	src := t.b.srcAttrib
	for i, e := range g.Edges {
		if e.From != flowgraph.Source {
			continue
		}
		var contribs []flowgraph.SourceContrib
		if t.b.exact {
			if len(src) == 0 {
				return &flowgraph.SourceMap{}
			}
			contribs, src = src[:1:1], src[1:]
		} else if c, ok := t.b.attrib[g.Key(i)]; ok {
			contribs = c
		} else {
			continue
		}
		m.Edge = append(m.Edge, int32(i))
		m.Contribs = append(m.Contribs, contribs)
	}
	if len(src) != 0 {
		return &flowgraph.SourceMap{}
	}
	return m
}

// GraphSize reports the current size of the accumulating graph — arena
// nodes (an upper bound on exported nodes) and edges — without
// building it. It is cheap enough for the engine's step-interval budget
// polling: in exact mode graph growth tracks run time, and this is the
// handle that bounds it mid-run.
func (t *Tracker) GraphSize() (nodes, edges int) {
	return t.b.ar.NumNodes(), t.b.ar.NumEdges()
}

// ArenaBytes reports the capacity of the tracker's edge store in bytes: 0
// between Graph and ResetAll.
func (t *Tracker) ArenaBytes() int64 { return t.b.ar.Bytes() }

// MemStats reports the graph core's memory behavior: peak live sizes and
// totals emitted.
func (t *Tracker) MemStats() flowgraph.MemStats { return t.b.ar.Mem() }

// Warnings returns accumulated diagnostics.
func (t *Tracker) Warnings() []Warning { return t.warnings }

// Snapshots returns the intermediate flow measurements taken at
// __flownote() calls.
func (t *Tracker) Snapshots() []Snapshot { return t.snapshots }

// Stats returns tracker statistics.
func (t *Tracker) Stats() Stats {
	s := t.stats
	s.Elements = t.b.ar.NumNodes()
	s.LabelledEdges = t.b.ar.NumEdges()
	s.ImplicitEdges = t.b.implicitEdges
	s.DescriptorFlush = t.sh.flushes
	return s
}

// maxWarnings bounds a run's diagnostic accumulation.
const maxWarnings = 1000

func (t *Tracker) warnf(site uint32, format string, args ...interface{}) {
	if len(t.warnings) >= maxWarnings {
		return
	}
	loc := fmt.Sprintf("pc=%d", t.m.PC)
	if t.m != nil && t.m.Prog != nil {
		loc = t.m.Prog.SiteString(site)
	}
	t.warnings = append(t.warnings, Warning{Site: loc, Msg: fmt.Sprintf(format, args...)})
}

// label builds an edge key for the current instruction: its label, and
// the calling-context hash as context word when context-sensitive.
func (t *Tracker) label(kind flowgraph.EdgeKind, aux uint8) flowgraph.Key {
	k := flowgraph.Key{Site: uint32(t.m.PC), Aux: aux, Kind: kind}
	if t.opts.ContextSensitive {
		k.Ctx = t.ctx
	}
	return k
}

func (t *Tracker) setReg(r int, el int32, m bits.Mask) {
	t.regEl[r] = el
	t.regMask[r] = m
}

func (t *Tracker) clearReg(r int) { t.setReg(r, 0, 0) }

// implicit records an implicit flow of capBits from the value el to the
// innermost enclosure (or the output chain when outside any region), per
// §2.2.
func (t *Tracker) implicit(site uint32, el int32, capBits int64) {
	if el == 0 || capBits == 0 {
		return
	}
	lbl := t.label(flowgraph.KindImplicit, 0)
	if n := len(t.regions); n > 0 {
		r := &t.regions[n-1]
		r.active = true
		t.b.addEdge(el, r.el, capBits, lbl)
		return
	}
	if t.opts.WarnImplicit {
		t.warnf(site, "implicit flow of %d bit(s) outside any enclosure region", capBits)
	}
	t.b.addEdge(el, t.chainEl, capBits, lbl)
}

// ---------------------------------------------------------------- hooks ---

// Const implements vm.Tracer.
func (t *Tracker) Const(site uint32, rd int) { t.clearReg(rd) }

// Mov implements vm.Tracer.
func (t *Tracker) Mov(site uint32, rd, rs int) {
	// Copying does not create nodes or edges (§2.1).
	t.setReg(rd, t.regEl[rs], t.regMask[rs])
}

// Binop implements vm.Tracer.
func (t *Tracker) Binop(site uint32, op vm.Op, rd, ra, rb int, va, vb vm.Word) {
	ea, eb := t.regEl[ra], t.regEl[rb]
	if ea == 0 && eb == 0 {
		t.clearReg(rd)
		return
	}
	ma, mb := t.regMask[ra], t.regMask[rb]
	rm := bits.Binop(op, ma, mb, va, vb)
	if rm == 0 {
		t.clearReg(rd)
		return
	}
	in, out := t.b.value(t.label(flowgraph.KindInternal, 0), int64(bits.Count(rm)))
	if ea != 0 {
		t.b.addEdge(ea, in, int64(bits.Count(ma)), t.label(flowgraph.KindData, 1))
	}
	if eb != 0 {
		t.b.addEdge(eb, in, int64(bits.Count(mb)), t.label(flowgraph.KindData, 2))
	}
	t.setReg(rd, out, rm)
}

// Unop implements vm.Tracer.
func (t *Tracker) Unop(site uint32, op vm.Op, rd, rs int, vs vm.Word) {
	es := t.regEl[rs]
	if es == 0 {
		t.clearReg(rd)
		return
	}
	ms := t.regMask[rs]
	rm := bits.Unop(op, ms, vs)
	if rm == 0 {
		t.clearReg(rd)
		return
	}
	in, out := t.b.value(t.label(flowgraph.KindInternal, 0), int64(bits.Count(rm)))
	t.b.addEdge(es, in, int64(bits.Count(ms)), t.label(flowgraph.KindData, 1))
	t.setReg(rd, out, rm)
}

// ExtB implements vm.Tracer (§4.1 sub-register read).
func (t *Tracker) ExtB(site uint32, rd, rs, idx int) {
	m := bits.Extract(t.regMask[rs], idx)
	if t.regEl[rs] == 0 || m == 0 {
		t.clearReg(rd)
		return
	}
	in, out := t.b.value(t.label(flowgraph.KindInternal, 0), int64(bits.Count(m)))
	t.b.addEdge(t.regEl[rs], in, int64(bits.Count(m)), t.label(flowgraph.KindData, 1))
	t.setReg(rd, out, m)
}

// InsB implements vm.Tracer (§4.1 sub-register write).
func (t *Tracker) InsB(site uint32, rd, rs, idx int) {
	keepMask := bits.Insert(t.regMask[rd], 0, idx)
	newByte := bits.Extract(t.regMask[rs], 0)
	rm := bits.Insert(t.regMask[rd], newByte, idx)
	if rm == 0 {
		t.clearReg(rd)
		return
	}
	in, out := t.b.value(t.label(flowgraph.KindInternal, 0), int64(bits.Count(rm)))
	if t.regEl[rd] != 0 && keepMask != 0 {
		t.b.addEdge(t.regEl[rd], in, int64(bits.Count(keepMask)), t.label(flowgraph.KindData, 1))
	}
	if t.regEl[rs] != 0 && newByte != 0 {
		t.b.addEdge(t.regEl[rs], in, int64(bits.Count(newByte)), t.label(flowgraph.KindData, 2))
	}
	t.setReg(rd, out, rm)
}

// Load implements vm.Tracer.
func (t *Tracker) Load(site uint32, rd, raddr int, addr vm.Word, n int) {
	t.pointerImplicit(site, raddr)
	if t.sh.public(addr, n) {
		t.clearReg(rd)
		return
	}
	var combined bits.Mask
	var els [4]int32
	var ms [4]bits.Mask
	any := false
	for i := 0; i < n; i++ {
		el, m := t.sh.get(addr + vm.Word(i))
		els[i], ms[i] = el, m&0xFF
		combined |= (m & 0xFF) << uint(8*i)
		if el != 0 {
			any = true
		}
	}
	if !any || combined == 0 {
		t.clearReg(rd)
		return
	}
	in, out := t.b.value(t.label(flowgraph.KindInternal, 0), int64(bits.Count(combined)))
	for i := 0; i < n; i++ {
		if els[i] != 0 && ms[i] != 0 {
			t.b.addEdge(els[i], in, int64(bits.Count(ms[i])), t.label(flowgraph.KindData, uint8(1+i)))
		}
	}
	t.setReg(rd, out, combined)
}

// Store implements vm.Tracer.
func (t *Tracker) Store(site uint32, raddr int, addr vm.Word, rs int, n int) {
	t.pointerImplicit(site, raddr)
	t.regionWrite(addr, n)
	t.storeValue(addr, n, t.regEl[rs], t.regMask[rs])
}

// storeValue splits a register value into per-byte memory values (§2.1).
// A public value stored over bytes that read as public changes nothing:
// under a public descriptor the byte reads the stored value already, so
// no exception needs recording.
func (t *Tracker) storeValue(addr vm.Word, n int, el int32, m bits.Mask) {
	if el == 0 {
		if t.sh.public(addr, n) {
			return
		}
		for i := 0; i < n; i++ {
			t.sh.setByte(addr+vm.Word(i), 0, 0)
		}
		return
	}
	for i := 0; i < n; i++ {
		bm := bits.Extract(m, i)
		if bm == 0 {
			t.sh.setByte(addr+vm.Word(i), 0, 0)
			continue
		}
		in, out := t.b.value(t.label(flowgraph.KindInternal, uint8(10+i)), int64(bits.Count(bm)))
		t.b.addEdge(el, in, int64(bits.Count(bm)), t.label(flowgraph.KindData, uint8(20+i)))
		t.sh.setByte(addr+vm.Word(i), out, bm)
	}
}

// pointerImplicit accounts for an address-dependent operation: as many bits
// as are secret in the pointer may leak through the choice of location
// (§2.2).
func (t *Tracker) pointerImplicit(site uint32, raddr int) {
	if m := t.regMask[raddr]; m != 0 {
		t.implicit(site, t.regEl[raddr], int64(bits.Count(m)))
	}
}

// Branch implements vm.Tracer: a two-way branch on a secret condition leaks
// one bit into the enclosure.
func (t *Tracker) Branch(site uint32, rc int, taken bool) {
	if t.regMask[rc] != 0 {
		if t.probe != nil {
			t.probe.TaintedBranch(t.m.PC)
		}
		t.implicit(site, t.regEl[rc], 1)
	}
}

// JmpInd implements vm.Tracer: an indirect jump through a secret register
// leaks as many bits as are secret in the target.
func (t *Tracker) JmpInd(site uint32, raddr int, target vm.Word) {
	if t.regMask[raddr] != 0 && t.probe != nil {
		t.probe.TaintedIndirect(t.m.PC)
	}
	t.pointerImplicit(site, raddr)
}

// Call implements vm.Tracer: maintains the probabilistic calling-context
// hash V' = 3V + callsite (§3.2).
func (t *Tracker) Call(site uint32, target int) {
	t.ctxStack = append(t.ctxStack, t.ctx)
	t.ctx = 3*t.ctx + uint64(t.m.PC)
}

// Ret implements vm.Tracer. A tainted return address is itself an indirect
// jump on secret data (the §8.5 code-injection channel).
func (t *Tracker) Ret(site uint32) {
	sp := t.m.Regs[vm.SP]
	var capBits int64
	var el int32
	for i := 0; i < 4; i++ {
		e, m := t.sh.get(sp + vm.Word(i))
		if e != 0 && m != 0 {
			el = e
			capBits += int64(bits.Count(m))
		}
	}
	if el != 0 && capBits > 0 {
		if t.probe != nil {
			t.probe.TaintedIndirect(t.m.PC)
		}
		t.warnf(site, "return through tainted address (%d secret bits)", capBits)
		t.implicit(site, el, capBits)
	}
	if n := len(t.ctxStack); n > 0 {
		t.ctx = t.ctxStack[n-1]
		t.ctxStack = t.ctxStack[:n-1]
	}
}

// Push implements vm.Tracer. rs < 0 pushes a public value (return address).
func (t *Tracker) Push(site uint32, rs int, addr vm.Word) {
	t.regionWrite(addr, 4)
	if rs < 0 {
		t.storeValue(addr, 4, 0, 0)
		return
	}
	if m := t.regMask[vm.SP]; m != 0 {
		t.implicit(site, t.regEl[vm.SP], int64(bits.Count(m)))
	}
	t.storeValue(addr, 4, t.regEl[rs], t.regMask[rs])
}

// Pop implements vm.Tracer. Load handles the (vanishingly rare) secret
// stack pointer as a pointer implicit flow.
func (t *Tracker) Pop(site uint32, rd int, addr vm.Word) {
	t.Load(site, rd, vm.SP, addr, 4)
}

// ReadInput implements vm.Tracer: secret input bytes become a fresh value
// fed by the Source with 8 bits per byte; public input clears shadow.
func (t *Tracker) ReadInput(site uint32, addr vm.Word, data []byte, secret bool) {
	// The syscall writes the byte count into R0; the count (public input
	// geometry) is not itself secret data.
	t.clearReg(vm.R0)
	n := len(data)
	if n == 0 {
		return
	}
	t.regionWrite(addr, n)
	if !secret {
		t.sh.setRange(addr, n, 0, 0)
		return
	}
	streamOff := t.secPos
	t.secPos += n
	if t.opts.SecretRanges == nil {
		t.stats.SecretInputBytes += n
		t.markSecretRange(addr, vm.Word(n), streamOff)
		return
	}
	// Class-restricted analysis (§10.1): only bytes inside a configured
	// stream range are secret; the rest of this read is public data.
	for i := 0; i < n; i++ {
		if t.inSecretRange(streamOff + i) {
			t.stats.SecretInputBytes++
			t.markSecretRange(addr+vm.Word(i), 1, streamOff+i)
		} else {
			t.sh.setByte(addr+vm.Word(i), 0, 0)
		}
	}
}

func (t *Tracker) inSecretRange(off int) bool {
	for _, r := range t.opts.SecretRanges {
		if off >= r.Off && off < r.Off+r.Len {
			return true
		}
	}
	return false
}

// markSecretRange tags [addr, addr+n) as secret input. Each byte becomes
// its own value (8 bits from the Source), so later uses of one byte are
// bounded by that byte's capacity rather than the whole input's. Byte
// labels are distinguished by address, which also makes them merge
// correctly across runs (§3.2): the same input location's capacities sum.
// streamOff is the first byte's offset in the secret input stream, used
// for class attribution (Options.AttributeSources); pass -1 for memory
// with no stream position (the __secret builtin).
func (t *Tracker) markSecretRange(addr, n vm.Word, streamOff int) {
	for i := vm.Word(0); i < n; i++ {
		lbl := t.label(flowgraph.KindInternal, 0)
		lbl.Ctx ^= uint64(addr+i) << 32
		in, out := t.b.value(lbl, 8)
		elbl := t.label(flowgraph.KindInput, 1)
		elbl.Ctx ^= uint64(addr+i) << 32
		off := -1
		if streamOff >= 0 {
			off = streamOff + int(i)
		}
		t.b.addSourceEdge(in, 8, elbl, off)
		t.sh.setByte(addr+i, out, 0xFF)
	}
}

// WriteOutput implements vm.Tracer.
func (t *Tracker) WriteOutput(site uint32, addr vm.Word, data []byte, reg int) {
	t.stats.OutputBytes += len(data)
	// An output inside an active enclosure region can carry the region's
	// implicit information before the region's leave retags its outputs;
	// connect the region to the chain so that channel is counted (§2.2's
	// soundness requirement, enforced dynamically).
	for i := range t.regions {
		if r := &t.regions[i]; r.active {
			t.b.addEdge(r.el, t.chainEl, flowgraph.Inf, t.label(flowgraph.KindRegion, 50))
			t.warnf(site, "output inside active enclosure region entered at pc=%d", r.enterPC)
		}
	}
	if reg >= 0 {
		// SysPutc: one byte from a register.
		if t.regEl[reg] != 0 {
			bm := bits.Extract(t.regMask[reg], 0)
			if bm != 0 {
				t.b.addEdge(t.regEl[reg], t.b.sinkEl, int64(bits.Count(bm)), t.label(flowgraph.KindOutput, 0))
			}
		}
	} else {
		// A secret buffer pointer or length on a write syscall is itself
		// an information channel (which bytes, and how many, were output).
		t.pointerImplicit(site, vm.R1)
		if m := t.regMask[vm.R2]; m != 0 {
			t.implicit(site, t.regEl[vm.R2], int64(bits.Count(m)))
		}
		for _, run := range t.sh.rangeRuns(addr, len(data)) {
			if run.el != 0 && run.maskSum > 0 {
				t.b.addEdge(run.el, t.b.sinkEl, int64(run.maskSum), t.label(flowgraph.KindOutput, 0))
			}
		}
		// The syscall writes the byte count into R0.
		t.clearReg(vm.R0)
	}
	t.advanceChain(site)
}

// advanceChain implements the output chain of §2.2: the current chain node
// drains to the sink at this output, and a fresh node becomes the
// attachment point for subsequent implicit flows, linked forward so earlier
// implicit information can still reach later outputs (but not earlier
// ones).
func (t *Tracker) advanceChain(site uint32) {
	t.b.addEdge(t.chainEl, t.b.sinkEl, flowgraph.Inf, t.label(flowgraph.KindChain, 1))
	// A collapsed link key's edge leads to its canonical chain node; exact
	// mode keeps no slots, so each output gets a fresh node.
	linkLbl := t.label(flowgraph.KindChain, 2)
	var next int32
	if slot, ok := t.b.ar.Slot(linkLbl); ok {
		_, next = t.b.ar.EdgeEnds(slot)
	} else {
		next = t.b.ar.AddNode()
	}
	t.b.addEdge(t.chainEl, next, flowgraph.Inf, linkLbl)
	t.chainEl = next
}

// MarkSecret implements vm.Tracer (the __secret builtin).
func (t *Tracker) MarkSecret(site uint32, addr, length vm.Word) {
	if length == 0 {
		return
	}
	t.stats.SecretInputBytes += int(length)
	// Builtin-marked memory has no secret-stream position: its Source
	// capacity is unattributed, so every class view keeps it — matching
	// the per-class re-execution oracle, which also marks it regardless
	// of the class ranging.
	t.markSecretRange(addr, length, -1)
}

// Declassify implements vm.Tracer (the __declassify builtin).
func (t *Tracker) Declassify(site uint32, addr, length vm.Word) {
	t.sh.setRange(addr, int(length), 0, 0)
}

// EnterRegion implements vm.Tracer.
func (t *Tracker) EnterRegion(site uint32, outputs []vm.Range) {
	t.stats.RegionsEntered++
	if t.probe != nil {
		t.probe.RegionEnter(t.m.PC)
	}
	lbl := t.label(flowgraph.KindRegion, 99)
	var el int32
	if t.opts.Exact {
		el = t.b.ar.AddNode()
	} else if e, ok := t.regionCanon[lbl]; ok {
		el = e
	} else {
		el = t.b.ar.AddNode()
		t.regionCanon[lbl] = el
	}
	// The region's state reuses the slot, and the write set's page list,
	// of an earlier region at the same depth.
	n := len(t.regions)
	if n == cap(t.regions) {
		t.regions = append(t.regions, regionState{})
	}
	t.regions = t.regions[:n+1]
	r := &t.regions[n]
	*r = regionState{
		el:       el,
		declared: outputs,
		enterPC:  uint32(t.m.PC),
		auto:     autoSet{pages: r.auto.pages[:0]},
	}
}

// regionWrite records a write inside the innermost region for the dynamic
// soundness check: locations written but not declared become automatic
// outputs at leave time.
func (t *Tracker) regionWrite(addr vm.Word, n int) {
	if len(t.regions) == 0 {
		return
	}
	r := &t.regions[len(t.regions)-1]
	// A write that no declared range overlaps and that lies wholly
	// outside the current frame goes into the write set in one step.
	if end := addr + vm.Word(n); !r.autoOverflow && !overlaps(r.declared, addr, end) {
		if sp, bp := t.m.Regs[vm.SP], t.m.Regs[vm.BP]; end <= sp || addr >= bp || sp >= bp {
			t.addAuto(&r.auto, addr, n)
			t.checkAutoLimit(r)
			return
		}
	}
	for i := 0; i < n; i++ {
		a := addr + vm.Word(i)
		declared := false
		if li := r.lastDecl; li < len(r.declared) {
			if d := r.declared[li]; a >= d.Addr && a < d.Addr+d.Len {
				declared = true
			}
		}
		if !declared {
			for di, d := range r.declared {
				if a >= d.Addr && a < d.Addr+d.Len {
					declared = true
					r.lastDecl = di
					break
				}
			}
		}
		if declared {
			continue
		}
		if sp := t.m.Regs[vm.SP]; a >= sp && a < t.m.Regs[vm.BP] {
			// A current-frame stack write: coalesce.
			if r.stackLo == r.stackHi {
				r.stackLo, r.stackHi = a, a+1
			} else {
				if a < r.stackLo {
					r.stackLo = a
				}
				if a >= r.stackHi {
					r.stackHi = a + 1
				}
			}
			continue
		}
		if r.autoOverflow {
			if a < r.autoLo {
				r.autoLo = a
			}
			if a >= r.autoHi {
				r.autoHi = a + 1
			}
			continue
		}
		t.addAuto(&r.auto, a, 1)
		t.checkAutoLimit(r)
	}
}

// overlaps reports whether any of ranges meets [lo, hi).
func overlaps(ranges []vm.Range, lo, hi vm.Word) bool {
	for _, d := range ranges {
		if d.Addr < hi && lo < d.Addr+d.Len {
			return true
		}
	}
	return false
}

// checkAutoLimit coalesces r's write set into a single covering range
// once it holds more than autoTrackLimit addresses.
func (t *Tracker) checkAutoLimit(r *regionState) {
	if r.auto.n <= autoTrackLimit {
		return
	}
	rs := r.auto.ranges(nil)
	last := rs[len(rs)-1]
	r.autoLo, r.autoHi = rs[0].Addr, last.Addr+last.Len
	r.autoOverflow = true
	t.releaseAuto(&r.auto)
}

// LeaveRegion implements vm.Tracer: the paper's ENTER/LEAVE pair's second
// half. If any implicit flow reached the region, every declared output (and
// every undeclared-but-written live location — the dynamic soundness check)
// is retagged with a fresh value fed by both its old value and the region
// node.
func (t *Tracker) LeaveRegion(site uint32) {
	if t.probe != nil {
		t.probe.RegionLeave(t.m.PC)
	}
	if len(t.regions) == 0 {
		t.warnf(site, "LEAVE_ENCLOSE without matching enter")
		return
	}
	r := &t.regions[len(t.regions)-1]
	t.regions = t.regions[:len(t.regions)-1]
	if !r.active {
		t.releaseAuto(&r.auto)
		return // no implicit flows: the region has no effect (§8.6)
	}

	ranges := make([]vm.Range, 0, len(r.declared)+4)
	ranges = append(ranges, r.declared...)
	ranges = t.autoRanges(r, ranges)

	for i, rng := range ranges {
		if rng.Len == 0 {
			continue
		}
		capBits := int64(8) * int64(rng.Len)
		// Context words are salted with addresses so that distinct
		// locations keep distinct nodes: a shared key would union every
		// old value in the range into one class and erase their
		// individual capacity bottlenecks (the same scheme
		// markSecretRange uses).
		vlbl := t.label(flowgraph.KindInternal, uint8(i))
		vlbl.Ctx ^= uint64(rng.Addr) << 32
		in, out := t.b.value(vlbl, capBits)
		rlbl := t.label(flowgraph.KindRegion, uint8(i))
		rlbl.Ctx ^= uint64(rng.Addr) << 32
		t.b.addEdge(r.el, in, capBits, rlbl)
		for _, run := range t.sh.rangeRuns(rng.Addr, int(rng.Len)) {
			if run.el != 0 && run.maskSum > 0 {
				dlbl := t.label(flowgraph.KindData, uint8(i))
				dlbl.Ctx ^= uint64(run.start) << 32
				t.b.addEdge(run.el, in, int64(run.maskSum), dlbl)
			}
		}
		t.sh.setRange(rng.Addr, int(rng.Len), out, 0xFF)
	}

	// Registers still holding tagged values are conservatively treated as
	// region outputs too. (With the MiniC compiler no value survives a
	// statement boundary in a register, so this is cheap insurance.)
	for reg := 0; reg < vm.NumRegs; reg++ {
		if t.regEl[reg] == 0 {
			continue
		}
		in, out := t.b.value(t.label(flowgraph.KindInternal, uint8(200+reg)), 32)
		t.b.addEdge(r.el, in, 32, t.label(flowgraph.KindRegion, uint8(200+reg)))
		t.b.addEdge(t.regEl[reg], in, int64(bits.Count(t.regMask[reg])), t.label(flowgraph.KindData, uint8(200+reg)))
		t.setReg(reg, out, bits.All)
	}
}

// autoRanges appends the undeclared-write record to out as coalesced ranges.
// Non-stack writes are always included; the frame-write range is clipped
// to [SP-at-leave, BP): everything below SP is dead expression temporaries
// and callee frames, and the slots at or above BP (saved frame pointer,
// return address) are not written by single-exit region bodies.
func (t *Tracker) autoRanges(r *regionState, out []vm.Range) []vm.Range {
	sp := t.m.Regs[vm.SP]
	if r.stackHi > r.stackLo {
		lo, hi := r.stackLo, r.stackHi
		if lo < sp {
			lo = sp
		}
		if hi > lo {
			t.stats.AutoOutputs += int(hi - lo)
			out = append(out, vm.Range{Addr: lo, Len: hi - lo})
		}
	}
	if r.autoOverflow {
		t.stats.AutoOutputs += int(r.autoHi - r.autoLo)
		return append(out, vm.Range{Addr: r.autoLo, Len: r.autoHi - r.autoLo})
	}
	t.stats.AutoOutputs += r.auto.n
	out = r.auto.ranges(out)
	t.releaseAuto(&r.auto)
	return out
}

// Exit implements vm.Tracer: program termination is a final observable
// event (§3.1 treats distinguishable terminal behaviors, like the division
// example's error report, as outputs). The exit code drains to the sink as
// data, and the output chain drains so pending implicit flows are counted —
// this is what makes printing n characters reveal n+1 bits, including the
// n = 0 case (§3.2).
func (t *Tracker) Exit(site uint32, codeReg int) {
	if t.regEl[codeReg] != 0 {
		if m := t.regMask[codeReg]; m != 0 {
			t.b.addEdge(t.regEl[codeReg], t.b.sinkEl, int64(bits.Count(m)), t.label(flowgraph.KindOutput, 3))
		}
	}
	// Unclosed active regions can still influence termination behavior.
	for i := range t.regions {
		if r := &t.regions[i]; r.active {
			t.b.addEdge(r.el, t.chainEl, flowgraph.Inf, t.label(flowgraph.KindRegion, 50))
		}
	}
	t.b.addEdge(t.chainEl, t.b.sinkEl, flowgraph.Inf, t.label(flowgraph.KindChain, 1))
}

// FlowNote implements vm.Tracer: take an intermediate flow measurement
// (§8.1's real-time mode) of the graph so far.
func (t *Tracker) FlowNote(site uint32) {
	_, res := t.solveSoFar()
	t.snapshots = append(t.snapshots, Snapshot{
		Steps:       t.m.Steps,
		OutputBytes: t.stats.OutputBytes,
		Bits:        res.Flow,
	})
}

// solveSoFar lays out the graph built so far in a CSR of its own and
// solves it. Nothing of the note outlives it, so a pooled tracker keeps
// no layout between runs.
func (t *Tracker) solveSoFar() (*flowgraph.Graph, *maxflow.Result) {
	g := t.b.build()
	var csr flowgraph.CSR
	g.BuildCSR(&csr)
	res, _ := maxflow.NewSolver().Solve(&csr, nil, 0)
	return g, res
}
