package static

import (
	"sort"

	"flowcheck/internal/vm"
)

// Region is the inferred enclosure extent of one conditional (or
// indirect) branch: every instruction whose execution is control-
// dependent on the branch, i.e. reachable from a branch successor
// without passing through the branch's immediate postdominator, plus the
// branch itself. When the branch has no postdominator inside its
// function (a path that never reaches the exit, e.g. an infinite loop on
// one arm), the region conservatively extends over everything the branch
// can reach.
type Region struct {
	Branch   int // pc of the controlling branch
	PostDom  int // pc of the immediate postdominator, or -1
	Func     string
	Indirect bool // region of a JmpInd rather than a Jz/Jnz

	pcs bitset // covered instruction indices (program-wide numbering)
}

// Covers reports whether pc falls inside the region.
func (r *Region) Covers(pc int) bool { return r.pcs.has(pc) }

// Size returns the number of instructions in the region.
func (r *Region) Size() int { return r.pcs.count() }

// Stats summarizes one static analysis pass for reporting.
type Stats struct {
	Funcs      int
	Blocks     int
	Branches   int // conditional + indirect branches analyzed
	Regions    int // inferred regions (== Branches)
	Enclosures int // static SysEnterRegion/SysLeaveRegion spans found
}

// Analysis is the result of the static pass over one program.
type Analysis struct {
	Prog    *vm.Program
	CFGs    []*FuncCFG
	Regions []*Region
	// Spans are the statically matched enclosure annotations, in
	// program order of their Enter pc.
	Spans []Span
	// Bound is the program's static leakage capacity (see bound.go).
	Bound *Bound
	Stats Stats

	covered bitset // union of all region pc sets
}

// Covered reports whether any inferred region contains pc.
func (a *Analysis) Covered(pc int) bool { return a.covered.has(pc) }

// RegionsAt returns the regions containing pc, innermost (smallest)
// first.
func (a *Analysis) RegionsAt(pc int) []*Region {
	var rs []*Region
	for _, r := range a.Regions {
		if r.Covers(pc) {
			rs = append(rs, r)
		}
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].Size() < rs[j].Size() })
	return rs
}

// Analyze runs the full static pass: CFG construction, postdominators,
// region inference, and enclosure-span matching.
func Analyze(p *vm.Program) *Analysis {
	a := &Analysis{Prog: p, CFGs: BuildCFG(p), covered: newBitset(len(p.Code))}

	// Count the branches first: the regions and their pc sets each come
	// from one array.
	nr, most := 0, 0
	for _, c := range a.CFGs {
		for i := range c.Blocks[:c.Exit] {
			if _, ok := branchAt(p, &c.Blocks[i]); ok {
				nr++
			}
		}
		most = max(most, len(c.Blocks))
	}
	regions := make([]Region, nr)
	a.Regions = make([]*Region, 0, nr)
	words := len(a.covered)
	pcs := make(bitset, nr*words)
	sc := regionScratch{seen: make([]bool, most), stack: make([]int, 0, most)}
	var dom domScratch

	for _, c := range a.CFGs {
		a.Stats.Funcs++
		a.Stats.Blocks += len(c.Blocks) - 1 // exclude the virtual exit
		ipdom := dom.postdominators(c)
		for i := range c.Blocks[:c.Exit] {
			b := &c.Blocks[i]
			indirect, ok := branchAt(p, b)
			if !ok {
				continue
			}
			a.Stats.Branches++
			r := &regions[len(a.Regions)]
			r.pcs, pcs = pcs[:words:words], pcs[words:]
			inferRegion(r, c, ipdom, b, indirect, &sc)
			a.Regions = append(a.Regions, r)
			a.covered.or(r.pcs)
		}
	}
	a.Spans = findSpans(p, a.CFGs)
	a.Bound = computeBound(p, a.CFGs)
	a.Stats.Regions = len(a.Regions)
	a.Stats.Enclosures = len(a.Spans)
	return a
}

// branchAt reports whether block b ends in a branch that gets a region:
// a conditional, or an indirect jump (indirect set).
func branchAt(p *vm.Program, b *Block) (indirect, ok bool) {
	switch p.Code[b.End-1].Op {
	case vm.OpJz, vm.OpJnz:
		return false, true
	case vm.OpJmpInd:
		return true, true
	}
	return false, false
}

// regionScratch is inferRegion's working storage, shared by every region
// of one program.
type regionScratch struct {
	seen  []bool
	stack []int
}

// inferRegion fills r, whose pcs is an empty bitset, with the
// control-dependence region of the branch terminating block b: blocks
// reachable from b's successors without passing through b's immediate
// postdominator.
func inferRegion(r *Region, c *FuncCFG, ipdom []int, b *Block, indirect bool, sc *regionScratch) {
	r.Branch, r.PostDom, r.Func, r.Indirect = b.End-1, -1, c.Name, indirect
	stop := ipdom[b.ID]
	if stop >= 0 && stop != c.Exit {
		r.PostDom = c.Blocks[stop].Start
	}
	seen := sc.seen[:len(c.Blocks)]
	clear(seen)
	if stop >= 0 {
		seen[stop] = true // barrier: do not cross the postdominator
	}
	stack := sc.stack[:0]
	for _, s := range b.Succs {
		if !seen[s] {
			seen[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		blk := &c.Blocks[v]
		for pc := blk.Start; pc < blk.End; pc++ {
			r.pcs.set(pc)
		}
		for _, s := range blk.Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	r.pcs.set(r.Branch)
}

// bitset is a fixed-size bit vector over instruction indices.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int) {
	if i >= 0 && i/64 < len(b) {
		b[i/64] |= 1 << (uint(i) % 64)
	}
}

func (b bitset) has(i int) bool {
	return i >= 0 && i/64 < len(b) && b[i/64]&(1<<(uint(i)%64)) != 0
}

func (b bitset) or(o bitset) {
	for i := range b {
		if i < len(o) {
			b[i] |= o[i]
		}
	}
}

func (b bitset) count() int {
	n := 0
	for _, w := range b {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}
