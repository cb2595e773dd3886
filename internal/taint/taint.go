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
	"fmt"
	"sort"

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

	// MaxDescriptors and MaxExceptions bound the lazy large-region
	// machinery of §4.3 (defaults 40 and 30). A negative MaxDescriptors
	// disables the lazy path entirely — the per-byte ablation of §4.3.
	MaxDescriptors int
	MaxExceptions  int

	// WarnImplicit logs every implicit-flow operation that is not inside
	// an enclosure region — the mode §8 uses to find where annotations are
	// needed.
	WarnImplicit bool

	// MaxWarnings bounds diagnostic accumulation (default 1000).
	MaxWarnings int

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
	// don't pay a map operation per byte; the live part (at or above SP at
	// leave) is retagged. Data-segment and above-frame writes are tracked
	// exactly.
	auto         map[vm.Word]bool // non-stack writes
	stackLo      vm.Word          // frame-write range (stackLo < stackHi)
	stackHi      vm.Word
	autoOverflow bool
	autoLo       vm.Word
	autoHi       vm.Word

	// lastDecl caches the index of the declared range the previous write
	// hit: loops write the same output ranges repeatedly.
	lastDecl int
}

const autoTrackLimit = 4096

// Tracker implements vm.Tracer.
type Tracker struct {
	opts Options
	m    *vm.Machine
	b    *builder
	sh   *shadowMem

	regEl   [vm.NumRegs]int32
	regMask [vm.NumRegs]bits.Mask

	regions []*regionState
	chainEl int32

	ctx      uint64
	ctxStack []uint64

	regionCanon map[flowgraph.Label]int32
	chainCanon  map[flowgraph.Label]int32

	warnings  []Warning
	snapshots []Snapshot
	stats     Stats
	probe     Probe

	// secPos tracks the secret stream offset for SecretRanges filtering.
	secPos int
}

// New creates a tracker.
func New(opts Options) *Tracker {
	if opts.MaxWarnings == 0 {
		opts.MaxWarnings = 1000
	}
	t := &Tracker{
		opts:        opts,
		b:           newBuilder(opts.Exact, opts.AttributeSources),
		sh:          newShadowMem(opts.MaxDescriptors, opts.MaxExceptions),
		regionCanon: map[flowgraph.Label]int32{},
		chainCanon:  map[flowgraph.Label]int32{},
	}
	t.chainEl = t.b.element()
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
// The shadow memory's pages are kept for reuse.
func (t *Tracker) Reset() {
	t.sh.reset()
	for i := range t.regEl {
		t.regEl[i] = 0
		t.regMask[i] = 0
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
// union-find and map storage; the arena's edge store went to the last
// Graph, so the run's first edge allocates a new one, sized for the
// largest recent run.
func (t *Tracker) ResetAll() {
	t.Reset()
	t.b.reset()
	t.chainEl = t.b.element()
	clear(t.regionCanon)
	clear(t.chainCanon)
	// Diagnostics escape into Results; release rather than truncate.
	t.warnings = nil
	t.snapshots = nil
	t.stats = Stats{}
}

// Graph builds the flow graph of the finished execution without copying
// it: the graph takes over the arena's edge store. Stats, MemStats and
// GraphSize still report the execution, but the tracker must not run
// again before ResetAll.
func (t *Tracker) Graph() *flowgraph.Graph { return t.b.ar.Take(t.b.resolve()) }

// SourceMap extracts the Source-edge attribution of a graph built by this
// tracker (Options.AttributeSources; nil otherwise): for each Source edge
// of g, the secret-stream bytes that fed it. Source edges with no
// recorded attribution are left out of the map and thus keep full
// capacity in every class view, which is conservative.
func (t *Tracker) SourceMap(g *flowgraph.Graph) *flowgraph.SourceMap {
	if t.b.attrib == nil {
		return nil
	}
	m := &flowgraph.SourceMap{}
	for i, e := range g.Edges {
		if e.From != flowgraph.Source {
			continue
		}
		contribs, ok := t.b.attrib[e.Label]
		if !ok {
			continue
		}
		m.Edge = append(m.Edge, int32(i))
		m.Contribs = append(m.Contribs, contribs)
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

func (t *Tracker) warnf(site uint32, format string, args ...interface{}) {
	if len(t.warnings) >= t.opts.MaxWarnings {
		return
	}
	loc := fmt.Sprintf("pc=%d", t.m.PC)
	if t.m != nil && t.m.Prog != nil {
		loc = t.m.Prog.SiteString(site)
	}
	t.warnings = append(t.warnings, Warning{Site: loc, Msg: fmt.Sprintf(format, args...)})
}

// label builds an edge label for the current instruction.
func (t *Tracker) label(kind flowgraph.EdgeKind, aux uint8) flowgraph.Label {
	l := flowgraph.Label{Site: uint32(t.m.PC), Aux: aux, Kind: kind}
	if t.opts.ContextSensitive {
		l.Ctx = t.ctx
	}
	return l
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
		r := t.regions[n-1]
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
	var rm bits.Mask
	switch op {
	case vm.OpAdd:
		rm = bits.Add(ma, mb, va, vb)
	case vm.OpSub:
		rm = bits.Sub(ma, mb, va, vb)
	case vm.OpMul:
		rm = bits.Mul(ma, mb, va, vb)
	case vm.OpDivU:
		rm = bits.DivU(ma, mb, va, vb)
	case vm.OpDivS:
		rm = bits.DivS(ma, mb, va, vb)
	case vm.OpModU:
		rm = bits.ModU(ma, mb, va, vb)
	case vm.OpModS:
		rm = bits.ModS(ma, mb, va, vb)
	case vm.OpAnd:
		rm = bits.And(ma, mb, va, vb)
	case vm.OpOr:
		rm = bits.Or(ma, mb, va, vb)
	case vm.OpXor:
		rm = bits.Xor(ma, mb)
	case vm.OpShl:
		rm = bits.Shl(ma, mb, va, vb)
	case vm.OpShrU:
		rm = bits.Shr(ma, mb, va, vb)
	case vm.OpShrS:
		rm = bits.Sar(ma, mb, va, vb)
	case vm.OpCmpEQ, vm.OpCmpNE, vm.OpCmpLTS, vm.OpCmpLES, vm.OpCmpLTU, vm.OpCmpLEU:
		rm = bits.Cmp(ma, mb)
	default:
		rm = bits.Mask(0)
		if ma|mb != 0 {
			rm = bits.All
		}
	}
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
	var rm bits.Mask
	if op == vm.OpNot {
		rm = bits.Not(ms)
	} else {
		rm = bits.Sub(0, ms, 0, vs) // negation is 0 - x
	}
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
func (t *Tracker) storeValue(addr vm.Word, n int, el int32, m bits.Mask) {
	if el == 0 {
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
	for _, r := range t.regions {
		if r.active {
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
	linkLbl := t.label(flowgraph.KindChain, 2)
	var next int32
	if t.opts.Exact {
		next = t.b.element()
	} else if el, ok := t.chainCanon[linkLbl]; ok {
		next = el
	} else {
		next = t.b.element()
		t.chainCanon[linkLbl] = next
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
		el = t.b.element()
	} else if e, ok := t.regionCanon[lbl]; ok {
		el = e
	} else {
		el = t.b.element()
		t.regionCanon[lbl] = el
	}
	t.regions = append(t.regions, &regionState{
		el:       el,
		declared: outputs,
		enterPC:  uint32(t.m.PC),
		auto:     map[vm.Word]bool{},
	})
}

// regionWrite records a write inside the innermost region for the dynamic
// soundness check: locations written but not declared become automatic
// outputs at leave time.
func (t *Tracker) regionWrite(addr vm.Word, n int) {
	if len(t.regions) == 0 {
		return
	}
	r := t.regions[len(t.regions)-1]
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
		r.auto[a] = true
		if len(r.auto) > autoTrackLimit {
			// Coalesce the exact set into a single covering range.
			r.autoOverflow = true
			r.autoLo, r.autoHi = a, a+1
			for b := range r.auto {
				if b < r.autoLo {
					r.autoLo = b
				}
				if b >= r.autoHi {
					r.autoHi = b + 1
				}
			}
		}
	}
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
	r := t.regions[len(t.regions)-1]
	t.regions = t.regions[:len(t.regions)-1]
	if !r.active {
		return // no implicit flows: the region has no effect (§8.6)
	}

	ranges := make([]vm.Range, 0, len(r.declared)+4)
	ranges = append(ranges, r.declared...)
	ranges = append(ranges, t.autoRanges(r)...)

	for i, rng := range ranges {
		if rng.Len == 0 {
			continue
		}
		capBits := int64(8) * int64(rng.Len)
		// Labels are salted with addresses so that distinct locations keep
		// distinct nodes: a shared label would union every old value in
		// the range into one class and erase their individual capacity
		// bottlenecks (the same scheme markSecretRange uses).
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

// autoRanges converts the undeclared-write record into coalesced ranges.
// Non-stack writes are always included; the frame-write range is clipped
// to [SP-at-leave, BP): everything below SP is dead expression temporaries
// and callee frames, and the slots at or above BP (saved frame pointer,
// return address) are not written by single-exit region bodies.
func (t *Tracker) autoRanges(r *regionState) []vm.Range {
	sp := t.m.Regs[vm.SP]
	var out []vm.Range
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
	addrs := make([]vm.Word, 0, len(r.auto))
	for a := range r.auto {
		addrs = append(addrs, a)
	}
	if len(addrs) == 0 {
		return out
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	start, n := addrs[0], vm.Word(1)
	for _, a := range addrs[1:] {
		if a == start+n {
			n++
			continue
		}
		out = append(out, vm.Range{Addr: start, Len: n})
		start, n = a, 1
	}
	out = append(out, vm.Range{Addr: start, Len: n})
	t.stats.AutoOutputs += len(addrs)
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
	for _, r := range t.regions {
		if r.active {
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
