// Package static is the bytecode-level static analysis subsystem: it
// builds per-function control-flow graphs over compiled vm.Instr streams,
// computes postdominator trees, and infers enclosure regions — for every
// conditional branch, the span from the branch to its immediate
// postdominator — together with an intraprocedural write-set analysis.
//
// This is the machine-code half of the paper's §8.6 pilot study, which
// internal/infer reproduces only at the AST level. Classic binary QIF and
// taint tools derive implicit-flow extents exactly this way (conditional
// branch to immediate postdominator), and the package doubles as a
// machine-checked lint for the hand-written enclosure annotations in the
// guest programs: CrossCheck validates the static results against the
// dynamic truth a taint.Tracker observed during a real run.
//
// Everything here is conservative in the over-approximating direction:
// indirect jumps are given every block leader in their function as a
// successor, calls are assumed to return (an extra fallthrough edge), and
// a branch with no postdominator inside its function gets a region
// extending over everything it can reach. Larger regions can only grow
// the enclosure extent the checker demands, never shrink it, so the
// coverage verdicts remain sound.
package static

import "flowcheck/internal/vm"

// Block is one basic block: the instruction range [Start, End) plus its
// intraprocedural successor and predecessor edges (block indices within
// the same FuncCFG; the virtual exit block is FuncCFG.Exit).
type Block struct {
	ID         int
	Start, End int
	Succs      []int
	Preds      []int
}

// FuncCFG is the control-flow graph of one function. Blocks are ordered
// by Start; Blocks[0] begins at the function entry, and the last block is
// a virtual, empty exit block (Start == End == function end) that every
// return, halt, and exit syscall feeds.
type FuncCFG struct {
	Name       string
	Entry, End int // instruction range [Entry, End)
	Blocks     []Block
	Exit       int // index of the virtual exit block
	// Indirect reports that the function contains indirect jumps, whose
	// successors are over-approximated as every block leader.
	Indirect bool

	blockOf []int32 // pc-Entry -> block index
}

// BuildCFG partitions every function of p into basic blocks and connects
// them. Programs without a function table (hand-assembled tests) yield no
// CFGs; callers treat their code as statically unknown.
//
// The whole program's CFGs share a few backing arrays, sized by counting
// passes: one for the FuncCFGs, one for every block, one for the
// pc-to-block maps and one for every successor and predecessor list.
func BuildCFG(p *vm.Program) []*FuncCFG {
	var nf, npc int
	for _, f := range p.Funcs {
		if validFunc(p, f) {
			nf++
			npc += f.End - f.Entry
		}
	}
	if nf == 0 {
		return nil
	}
	vals := make([]FuncCFG, nf)
	cfgs := make([]*FuncCFG, nf)
	blockOf := make([]int32, npc)

	// Leaders: the entry, every in-function jump target, and every
	// instruction following a block terminator (so fallthrough into a jump
	// target still starts a fresh block there). A leader is marked by a
	// block index of 1 until the blocks are numbered.
	nblocks := 0
	fi := 0
	for _, f := range p.Funcs {
		if !validFunc(p, f) {
			continue
		}
		c := &vals[fi]
		cfgs[fi] = c
		fi++
		*c = FuncCFG{Name: f.Name, Entry: f.Entry, End: f.End}
		c.blockOf, blockOf = blockOf[:f.End-f.Entry:f.End-f.Entry], blockOf[f.End-f.Entry:]
		c.markLeaders(p)
		nblocks += c.Exit + 1
	}

	// Partition into blocks.
	blocks := make([]Block, nblocks)
	nedges, most := 0, 0
	for _, c := range cfgs {
		n := c.Exit
		c.Blocks, blocks = blocks[:n+1:n+1], blocks[n+1:]
		id := -1
		for i := range c.blockOf {
			if c.blockOf[i] == 1 || i == 0 {
				id++
				c.Blocks[id] = Block{ID: id, Start: c.Entry + i}
			}
			c.Blocks[id].End = c.Entry + i + 1
			c.blockOf[i] = int32(id)
		}
		c.Blocks[n] = Block{ID: n, Start: c.End, End: c.End}
		for i := range c.Blocks[:n] {
			nedges += c.numSuccs(p, &c.Blocks[i])
		}
		most = max(most, n+1)
	}

	// Connect blocks: carve each block's successor list, count
	// predecessors, then carve the predecessor lists and fill them in
	// block order.
	adj := make([]int, 2*nedges)
	succs, preds := adj[:nedges], adj[nedges:]
	npred := make([]int, most)
	for _, c := range cfgs {
		npred := npred[:len(c.Blocks)]
		clear(npred)
		for i := range c.Blocks[:c.Exit] {
			b := &c.Blocks[i]
			n := c.numSuccs(p, b)
			b.Succs, succs = c.appendSuccs(succs[:0:n], p, b), succs[n:]
			for _, s := range b.Succs {
				npred[s]++
			}
		}
		for i := range c.Blocks {
			c.Blocks[i].Preds, preds = preds[:0:npred[i]], preds[npred[i]:]
		}
		for i := range c.Blocks[:c.Exit] {
			for _, s := range c.Blocks[i].Succs {
				c.Blocks[s].Preds = append(c.Blocks[s].Preds, i)
			}
		}
	}
	return cfgs
}

func validFunc(p *vm.Program, f vm.FuncInfo) bool {
	return f.Entry >= 0 && f.End <= len(p.Code) && f.Entry < f.End
}

// endsBlock reports whether the instruction terminates a basic block, and
// isExit whether control leaves the function (or program) entirely.
func endsBlock(in *vm.Instr) (ends, isExit bool) {
	switch in.Op {
	case vm.OpJmp, vm.OpJz, vm.OpJnz, vm.OpJmpInd:
		return true, false
	case vm.OpRet, vm.OpHalt:
		return true, true
	case vm.OpSys:
		if int(in.Imm) == vm.SysExit {
			return true, true
		}
	}
	return false, false
}

// markLeaders sets blockOf[i] to 1 at every leader but the entry, which
// always leads, sets Indirect, and sets Exit to the number of real blocks,
// which is the exit block's index.
func (c *FuncCFG) markLeaders(p *vm.Program) {
	c.Exit = 1
	mark := func(i int) {
		if i > 0 && c.blockOf[i] == 0 {
			c.blockOf[i] = 1
			c.Exit++
		}
	}
	for pc := c.Entry; pc < c.End; pc++ {
		in := &p.Code[pc]
		switch in.Op {
		case vm.OpJmp, vm.OpJz, vm.OpJnz:
			if t := int(in.Imm); t >= c.Entry && t < c.End {
				mark(t - c.Entry)
			}
		case vm.OpJmpInd:
			c.Indirect = true
		}
		if ends, _ := endsBlock(in); ends && pc+1 < c.End {
			mark(pc + 1 - c.Entry)
		}
	}
}

// inFn maps a jump target to its block. Targets that leave the function
// range (which the MiniC compiler never emits) conservatively fall to the
// exit block.
func (c *FuncCFG) inFn(t int) int {
	if t >= c.Entry && t < c.End {
		return int(c.blockOf[t-c.Entry])
	}
	return c.Exit
}

// numSuccs counts block b's successors, as appendSuccs lists them.
func (c *FuncCFG) numSuccs(p *vm.Program, b *Block) int {
	last := &p.Code[b.End-1]
	switch last.Op {
	case vm.OpJz, vm.OpJnz:
		if c.inFn(b.End) == c.inFn(int(last.Imm)) {
			return 1
		}
		return 2
	case vm.OpJmpInd:
		return c.Exit
	}
	return 1
}

// appendSuccs appends block b's successors to dst, each once.
func (c *FuncCFG) appendSuccs(dst []int, p *vm.Program, b *Block) []int {
	last := &p.Code[b.End-1]
	ends, isExit := endsBlock(last)
	switch {
	case isExit:
		return append(dst, c.Exit)
	case !ends:
		// Straight-line fall-through; calls are assumed to return, so
		// OpCall/OpCallInd keep their fallthrough edge.
		return append(dst, c.inFn(b.End))
	case last.Op == vm.OpJmp:
		return append(dst, c.inFn(int(last.Imm)))
	case last.Op == vm.OpJz || last.Op == vm.OpJnz:
		fall, t := c.inFn(b.End), c.inFn(int(last.Imm))
		if t == fall {
			return append(dst, fall)
		}
		return append(dst, fall, t)
	}
	// OpJmpInd. Over-approximate: a jump table can reach any leader.
	for id := range c.Exit {
		dst = append(dst, id)
	}
	return dst
}
