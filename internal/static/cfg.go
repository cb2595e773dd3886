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
	Blocks     []*Block
	Exit       int // index of the virtual exit block
	// Indirect reports that the function contains indirect jumps, whose
	// successors are over-approximated as every block leader.
	Indirect bool

	blockOf []int // pc-Entry -> block index
}

// BuildCFG partitions every function of p into basic blocks and connects
// them. Programs without a function table (hand-assembled tests) yield no
// CFGs; callers treat their code as statically unknown.
func BuildCFG(p *vm.Program) []*FuncCFG {
	cfgs := make([]*FuncCFG, 0, len(p.Funcs))
	for _, f := range p.Funcs {
		if f.Entry < 0 || f.End > len(p.Code) || f.Entry >= f.End {
			continue
		}
		cfgs = append(cfgs, buildFuncCFG(p, f))
	}
	return cfgs
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

func buildFuncCFG(p *vm.Program, f vm.FuncInfo) *FuncCFG {
	c := &FuncCFG{Name: f.Name, Entry: f.Entry, End: f.End}
	n := f.End - f.Entry

	// Leaders: the entry, every in-function jump target, and every
	// instruction following a block terminator (so fallthrough into a jump
	// target still starts a fresh block there).
	leader := make([]bool, n)
	leader[0] = true
	for pc := f.Entry; pc < f.End; pc++ {
		in := &p.Code[pc]
		switch in.Op {
		case vm.OpJmp, vm.OpJz, vm.OpJnz:
			if t := int(in.Imm); t >= f.Entry && t < f.End {
				leader[t-f.Entry] = true
			}
		case vm.OpJmpInd:
			c.Indirect = true
		}
		if ends, _ := endsBlock(in); ends && pc+1 < f.End {
			leader[pc+1-f.Entry] = true
		}
	}

	// Partition into blocks.
	c.blockOf = make([]int, n)
	var cur *Block
	for i := 0; i < n; i++ {
		if leader[i] {
			cur = &Block{ID: len(c.Blocks), Start: f.Entry + i}
			c.Blocks = append(c.Blocks, cur)
		}
		cur.End = f.Entry + i + 1
		c.blockOf[i] = cur.ID
	}
	exit := &Block{ID: len(c.Blocks), Start: f.End, End: f.End}
	c.Blocks = append(c.Blocks, exit)
	c.Exit = exit.ID

	// Collect every leader once for the indirect-jump over-approximation.
	var leaders []int
	if c.Indirect {
		for _, b := range c.Blocks[:c.Exit] {
			leaders = append(leaders, b.ID)
		}
	}

	// Connect blocks. Targets that leave the function range (which the
	// MiniC compiler never emits) conservatively fall to the exit block.
	inFn := func(t int) int {
		if t >= f.Entry && t < f.End {
			return c.blockOf[t-f.Entry]
		}
		return c.Exit
	}
	for _, b := range c.Blocks[:c.Exit] {
		last := &p.Code[b.End-1]
		var succs []int
		ends, isExit := endsBlock(last)
		switch {
		case isExit:
			succs = []int{c.Exit}
		case !ends:
			// Straight-line fall-through; calls are assumed to return, so
			// OpCall/OpCallInd keep their fallthrough edge.
			if b.End < f.End {
				succs = []int{c.blockOf[b.End-f.Entry]}
			} else {
				succs = []int{c.Exit}
			}
		case last.Op == vm.OpJmp:
			succs = []int{inFn(int(last.Imm))}
		case last.Op == vm.OpJz || last.Op == vm.OpJnz:
			fall := c.Exit
			if b.End < f.End {
				fall = c.blockOf[b.End-f.Entry]
			}
			succs = []int{fall, inFn(int(last.Imm))}
		case last.Op == vm.OpJmpInd:
			// Over-approximate: a jump table can reach any leader.
			succs = append([]int(nil), leaders...)
		}
		b.Succs = dedupInts(succs)
		for _, s := range b.Succs {
			c.Blocks[s].Preds = append(c.Blocks[s].Preds, b.ID)
		}
	}
	return c
}

func dedupInts(in []int) []int {
	seen := map[int]bool{}
	out := in[:0]
	for _, v := range in {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
