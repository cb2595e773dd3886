package static

import (
	"fmt"
	"math"
	"slices"

	"flowcheck/internal/vm"
)

// Static leakage bound: a capacity abstract interpretation that computes,
// per program and with no execution, a sound upper bound in bits on what
// any run can leak.
//
// The headline number is source-side. Every secret bit that can influence
// an observable must first enter the program through SysRead on the
// secret stream (or be conjured by SysMarkSecret), and the VM's secret
// stream has a monotonic cursor: across one run the bytes read never
// exceed len(SecretIn), and each read site delivers at most its constant
// length per visit. So
//
//	leak(run) ≤ maxflow ≤ source capacity
//	          ≤ min(8·len(secret), Σ_sites 8·len_site·visits_site)
//
// and the static pass over-approximates visits_site with a saturating
// execution-count analysis: per-function block SCCs mark loop bodies
// (count ∞ per call), and a call-graph SCC condensation propagates
// call counts from the entry function (recursion and indirect calls
// saturate to ∞). Everything unresolved — a non-constant stream id or
// length, a SysRead outside every function CFG, any SysMarkSecret —
// falls back to the full secret width, which is exactly the trivial
// rung, so the bound can never be unsound, only loose.
//
// The write-set and region machinery feeds the diagnostic side of the
// Bound: output-channel capacity (SysWrite/SysPutc sites at their
// classified widths) and the total branch-condition capacity of the
// inferred enclosure regions (each conditional observed at 1 bit per
// visit, indirect jumps at a full word). Those mirror the sink side of
// the dynamic graph — whose chain edges are uncapacitated, so they do
// not tighten the sound bound — but they tell a caller *where* the
// capacity is and how the static picture compares to the measured cut.

// InfBits is the saturating "statically unbounded" capacity value.
const InfBits int64 = math.MaxInt64

// Channel kinds recorded in Bound.Channels.
const (
	ChanSecretRead = "secret-read"
	ChanMarkSecret = "mark-secret"
	ChanOutput     = "output"
)

// Channel is one statically discovered capacity site.
type Channel struct {
	PC    int    // instruction index
	Where string // vm.LocString of the site
	Kind  string // ChanSecretRead, ChanMarkSecret, or ChanOutput
	Bits  int64  // per-visit width in bits (InfBits when unresolved)
	Count int64  // static bound on visits (InfBits inside loops/recursion)
}

// Bound is the program's static capacity summary.
type Bound struct {
	// StreamReadBits is the saturating sum over secret SysRead sites of
	// 8·length·visit-count — the source-side capacity of the secret
	// stream before the whole-secret cap. InfBits when any site is
	// unresolved.
	StreamReadBits int64
	// MarkSecret reports a reachable SysMarkSecret: marked memory is a
	// secret source that bypasses the stream cursor, so the bound falls
	// back to the full secret width (the model charges a marking program
	// the same as the trivial rung).
	MarkSecret bool
	// OutputBits is the saturating static capacity of the output channel
	// (SysWrite/SysPutc). Diagnostic only: the dynamic graph's chain
	// edges are uncapacitated, so the sound bound stays source-side.
	OutputBits int64
	// BranchBits is the total branch-condition capacity of the inferred
	// regions: 1 bit per conditional visit, a full word per indirect
	// jump visit. Diagnostic, like OutputBits.
	BranchBits int64
	// Channels lists every discovered site in program order.
	Channels []Channel
	// Notes explains each conservative fallback taken.
	Notes []string
}

// Bits returns the sound leakage upper bound in bits for a run with a
// secretLen-byte secret: min(StreamReadBits, 8·secretLen), falling back
// to the full secret width when the stream side is unresolved or the
// program marks memory secret. A nil Bound is fully conservative.
func (b *Bound) Bits(secretLen int) int64 {
	trivial := 8 * int64(secretLen)
	if b == nil || b.MarkSecret || b.StreamReadBits >= InfBits {
		return trivial
	}
	if b.StreamReadBits < trivial {
		return b.StreamReadBits
	}
	return trivial
}

// Resolved reports whether the static pass bounded the secret stream
// without falling back to the whole-secret width.
func (b *Bound) Resolved() bool {
	return b != nil && !b.MarkSecret && b.StreamReadBits < InfBits
}

func (b *Bound) note(format string, args ...any) {
	b.Notes = append(b.Notes, fmt.Sprintf(format, args...))
}

// satAdd and satMul are saturating arithmetic on non-negative capacities.
func satAdd(a, b int64) int64 {
	if a >= InfBits || b >= InfBits || a > InfBits-b {
		return InfBits
	}
	return a + b
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a >= InfBits || b >= InfBits || a > InfBits/b {
		return InfBits
	}
	return a * b
}

// computeBound runs the capacity abstract interpretation over the CFGs.
func computeBound(p *vm.Program, cfgs []*FuncCFG) *Bound {
	b := &Bound{}
	if p == nil || len(p.Code) == 0 {
		return b
	}

	// Syscalls outside every function CFG (hand-assembled programs, or a
	// broken function table) cannot be visit-counted: fall back.
	funcAt := funcIndex(p, cfgs)
	for pc := range p.Code {
		in := &p.Code[pc]
		if in.Op != vm.OpSys || funcAt[pc] >= 0 {
			continue
		}
		switch int(in.Imm) {
		case vm.SysRead:
			b.StreamReadBits = InfBits
			b.note("read syscall outside every function CFG at %s", p.LocString(pc))
		case vm.SysMarkSecret:
			b.MarkSecret = true
			b.note("mark-secret outside every function CFG at %s", p.LocString(pc))
		case vm.SysWrite, vm.SysPutc:
			b.OutputBits = InfBits
		}
	}

	counts, cyclic := multiplicities(p, cfgs, funcAt)
	var stk []absVal // scanBlock's abstract stack, reused across blocks
	for fi, c := range cfgs {
		fnCount := counts[fi]
		for i := range c.Blocks[:c.Exit] {
			blk := &c.Blocks[i]
			visits := fnCount
			if cyclic[fi][blk.ID] {
				visits = satMul(visits, InfBits) // 0 stays 0, else ∞
			}
			stk = b.scanBlock(p, blk, visits, stk[:0])
			b.chargeBranch(p, blk, visits)
		}
	}
	return b
}

// chargeBranch adds the block terminator's condition capacity: the
// enclosure-region model observes 1 bit per conditional visit and a full
// word per indirect jump (its target encodes up to 32 bits).
func (b *Bound) chargeBranch(p *vm.Program, blk *Block, visits int64) {
	switch p.Code[blk.End-1].Op {
	case vm.OpJz, vm.OpJnz:
		b.BranchBits = satAdd(b.BranchBits, satMul(1, visits))
	case vm.OpJmpInd:
		b.BranchBits = satAdd(b.BranchBits, satMul(32, visits))
	}
}

// scanBlock mirrors the write-set classifier's per-block constant
// propagation (see writeset.go for why no cross-block join is needed)
// and records every syscall channel at the abstract register state
// holding immediately before the call. stk is an empty abstract stack
// whose storage scanBlock may reuse; it returns the storage.
func (b *Bound) scanBlock(p *vm.Program, blk *Block, visits int64, stk []absVal) []absVal {
	var regs [vm.NumRegs]absVal
	for i := range regs {
		regs[i] = top
	}
	regs[vm.BP] = absVal{kind: absBP}

	for pc := blk.Start; pc < blk.End; pc++ {
		in := &p.Code[pc]
		switch in.Op {
		case vm.OpConst:
			regs[in.A] = absVal{kind: absConst, off: int64(in.Imm)}
		case vm.OpMov:
			regs[in.A] = regs[in.B]
		case vm.OpAdd:
			regs[in.A] = absAdd(regs[in.B], regs[in.C])
		case vm.OpSub:
			regs[in.A] = absSub(regs[in.B], regs[in.C])
		case vm.OpPush:
			stk = append(stk, regs[in.B])
		case vm.OpPop:
			if n := len(stk); n > 0 {
				regs[in.A] = stk[n-1]
				stk = stk[:n-1]
			} else {
				regs[in.A] = top
			}
		case vm.OpLoad:
			regs[in.A] = top
		case vm.OpCall, vm.OpCallInd:
			for r := 0; r < vm.SP; r++ {
				regs[r] = top
			}
		case vm.OpSys:
			b.recordSys(p, pc, int(in.Imm), &regs, visits)
			regs[vm.R0] = top
		case vm.OpStore, vm.OpJmp, vm.OpJz, vm.OpJnz,
			vm.OpJmpInd, vm.OpRet, vm.OpHalt, vm.OpNop:
			// No register results.
		default:
			regs[in.A] = top
		}
	}
	return stk
}

// recordSys charges one syscall site. regs is the abstract state before
// the call (R0 not yet clobbered).
func (b *Bound) recordSys(p *vm.Program, pc, sys int, regs *[vm.NumRegs]absVal, visits int64) {
	constWidth := func(length absVal) int64 {
		if length.kind == absConst && length.off >= 0 {
			return satMul(8, length.off)
		}
		return InfBits
	}
	switch sys {
	case vm.SysRead:
		stream, length := regs[vm.R0], regs[vm.R2]
		if stream.kind == absConst && stream.off != int64(vm.StreamSecret) {
			return // public stream: no secret capacity
		}
		width := constWidth(length)
		if stream.kind != absConst {
			b.note("read with unresolved stream id at %s", p.LocString(pc))
		}
		if width >= InfBits {
			b.note("secret read with unresolved length at %s", p.LocString(pc))
		}
		b.Channels = append(b.Channels, Channel{
			PC: pc, Where: p.LocString(pc), Kind: ChanSecretRead, Bits: width, Count: visits,
		})
		b.StreamReadBits = satAdd(b.StreamReadBits, satMul(width, visits))
	case vm.SysMarkSecret:
		width := constWidth(regs[vm.R2])
		b.Channels = append(b.Channels, Channel{
			PC: pc, Where: p.LocString(pc), Kind: ChanMarkSecret, Bits: width, Count: visits,
		})
		if visits != 0 {
			b.MarkSecret = true
			b.note("mark-secret re-sources memory at %s: falling back to full secret width", p.LocString(pc))
		}
	case vm.SysWrite:
		width := constWidth(regs[vm.R2])
		b.Channels = append(b.Channels, Channel{
			PC: pc, Where: p.LocString(pc), Kind: ChanOutput, Bits: width, Count: visits,
		})
		b.OutputBits = satAdd(b.OutputBits, satMul(width, visits))
	case vm.SysPutc:
		b.Channels = append(b.Channels, Channel{
			PC: pc, Where: p.LocString(pc), Kind: ChanOutput, Bits: 8, Count: visits,
		})
		b.OutputBits = satAdd(b.OutputBits, satMul(8, visits))
	}
}

// multiplicities bounds, for every function, how many times it can be
// entered, and marks the blocks that can repeat within one entry.
//
// Block cycles: Tarjan SCCs over each function's intraprocedural CFG; a
// block in a non-trivial SCC (or with a self edge) can run any number of
// times per call, so its sites saturate. Call counts: the direct call
// graph is condensed by SCC; the entry function starts at 1, recursion
// (non-trivial call SCC or self call) saturates, a call site inside a
// block cycle contributes ∞, and any reachable indirect call saturates
// every function — the conservative fallback for unresolved targets.
// Functions never called statically get 0 and contribute nothing.
// funcAt is funcIndex(p, cfgs).
func multiplicities(p *vm.Program, cfgs []*FuncCFG, funcAt []int32) (counts []int64, cyclic [][]bool) {
	n := len(cfgs)
	counts = make([]int64, n)
	cyclic = make([][]bool, n)
	if n == 0 {
		return counts, cyclic
	}
	nblocks := 0
	for _, c := range cfgs {
		nblocks += len(c.Blocks)
	}
	flat := make([]bool, nblocks)
	var scc sccs
	for fi, c := range cfgs {
		cyclic[fi], flat = flat[:len(c.Blocks):len(c.Blocks)], flat[len(c.Blocks):]
		blockCycles(c, &scc, cyclic[fi])
	}

	funcOf := func(pc int) int {
		if pc < 0 || pc >= len(funcAt) {
			return -1
		}
		return int(funcAt[pc])
	}

	// Direct call edges, grouped by caller: function fi's are
	// callee[first[fi]:first[fi+1]], and inLoop marks a call site inside
	// a block cycle. Unresolved pieces saturate everything.
	var callee []int
	var inLoop []bool
	first := make([]int, n+1)
	saturateAll := false
	for fi, c := range cfgs {
		first[fi] = len(callee)
		for i := range c.Blocks[:c.Exit] {
			blk := &c.Blocks[i]
			for pc := blk.Start; pc < blk.End; pc++ {
				switch p.Code[pc].Op {
				case vm.OpCallInd:
					saturateAll = true
				case vm.OpCall:
					to := funcOf(int(p.Code[pc].Imm))
					if to < 0 {
						saturateAll = true
						continue
					}
					callee = append(callee, to)
					inLoop = append(inLoop, cyclic[fi][blk.ID])
				}
			}
		}
	}
	first[n] = len(callee)

	entry := funcOf(p.Entry)
	if entry < 0 || saturateAll {
		for fi := range counts {
			counts[fi] = InfBits
		}
		return counts, cyclic
	}

	// Condense the call graph by SCC and propagate counts callers-first
	// (Tarjan emits callees before callers, so iterate in reverse).
	scc.compute(n, func(fi int) []int { return callee[first[fi]:first[fi+1]] })
	counts[entry] = 1
	for si := scc.count() - 1; si >= 0; si-- {
		members := scc.component(si)
		recursive := len(members) > 1 || slices.Contains(callee[first[members[0]]:first[members[0]+1]], members[0])
		if recursive && slices.ContainsFunc(members, func(fi int) bool { return counts[fi] != 0 }) {
			for _, fi := range members {
				counts[fi] = InfBits
			}
		}
		for _, fi := range members {
			if counts[fi] == 0 {
				continue
			}
			for e := first[fi]; e < first[fi+1]; e++ {
				if scc.of[callee[e]] == si {
					continue // intra-SCC: handled by the recursion rule
				}
				contrib := counts[fi]
				if inLoop[e] {
					contrib = InfBits
				}
				counts[callee[e]] = satAdd(counts[callee[e]], contrib)
			}
		}
	}
	return counts, cyclic
}

// funcIndex maps every pc to the index of the first CFG whose range holds
// it, or -1 outside every CFG.
func funcIndex(p *vm.Program, cfgs []*FuncCFG) []int32 {
	funcAt := make([]int32, len(p.Code))
	for i := range funcAt {
		funcAt[i] = -1
	}
	for fi := len(cfgs) - 1; fi >= 0; fi-- {
		c := cfgs[fi]
		for pc := c.Entry; pc < c.End; pc++ {
			funcAt[pc] = int32(fi)
		}
	}
	return funcAt
}

// blockCycles marks in out the blocks of one function that sit on an
// intraprocedural cycle (non-trivial SCC or self edge). scc is working
// storage.
func blockCycles(c *FuncCFG, scc *sccs, out []bool) {
	scc.compute(len(c.Blocks), func(v int) []int { return c.Blocks[v].Succs })
	for k := range scc.count() {
		if members := scc.component(k); len(members) > 1 {
			for _, v := range members {
				out[v] = true
			}
		}
	}
	for i := range c.Blocks {
		if slices.Contains(c.Blocks[i].Succs, i) {
			out[i] = true
		}
	}
}

// sccs is a strongly connected component decomposition in flat arrays,
// together with Tarjan's working storage, which compute reuses from one
// graph to the next.
type sccs struct {
	of      []int // vertex -> component
	members []int // vertices grouped by component
	start   []int // component k is members[start[k]:start[k+1]]

	index, low []int
	onStack    []bool
	stack      []int
	work       []sccFrame
}

type sccFrame struct{ v, i int }

// count returns the number of components.
func (s *sccs) count() int { return len(s.start) - 1 }

// component returns component k's vertices.
func (s *sccs) component(k int) []int { return s.members[s.start[k]:s.start[k+1]] }

// compute finds the strongly connected components of the graph on
// vertices [0, n) whose successors are succ(v). Components are numbered
// successors-first (reverse topological order of the condensation).
// Iterative to keep deep CFGs off the Go stack.
func (s *sccs) compute(n int, succ func(v int) []int) {
	const unvisited = -1
	s.of = fill(s.of, n, -1)
	s.index = fill(s.index, n, unvisited)
	s.low = fill(s.low, n, 0)
	s.onStack = slices.Grow(s.onStack[:0], n)[:n]
	clear(s.onStack)
	s.members, s.start, s.stack = s.members[:0], append(s.start[:0], 0), s.stack[:0]
	next := 0

	for root := 0; root < n; root++ {
		if s.index[root] != unvisited {
			continue
		}
		s.work = append(s.work[:0], sccFrame{root, 0})
		for len(s.work) > 0 {
			f := &s.work[len(s.work)-1]
			v := f.v
			if f.i == 0 {
				s.index[v] = next
				s.low[v] = next
				next++
				s.stack = append(s.stack, v)
				s.onStack[v] = true
			}
			advanced := false
			for succs := succ(v); f.i < len(succs); {
				w := succs[f.i]
				f.i++
				if s.index[w] == unvisited {
					s.work = append(s.work, sccFrame{w, 0})
					advanced = true
					break
				}
				if s.onStack[w] && s.index[w] < s.low[v] {
					s.low[v] = s.index[w]
				}
			}
			if advanced {
				continue
			}
			if s.low[v] == s.index[v] {
				for {
					w := s.stack[len(s.stack)-1]
					s.stack = s.stack[:len(s.stack)-1]
					s.onStack[w] = false
					s.of[w] = s.count()
					s.members = append(s.members, w)
					if w == v {
						break
					}
				}
				s.start = append(s.start, len(s.members))
			}
			s.work = s.work[:len(s.work)-1]
			if len(s.work) > 0 {
				u := s.work[len(s.work)-1].v
				if s.low[v] < s.low[u] {
					s.low[u] = s.low[v]
				}
			}
		}
	}
}

// fill returns a length-n slice of v, reusing s's storage if it fits.
func fill(s []int, n, v int) []int {
	s = slices.Grow(s[:0], n)[:n]
	for i := range s {
		s[i] = v
	}
	return s
}
