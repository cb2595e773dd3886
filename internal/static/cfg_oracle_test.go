package static

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"flowcheck/internal/vm"
)

// refBlock and refCFG are the CFG builder as it was when every block and
// successor list was its own allocation: the oracle for BuildCFG.
type refBlock struct {
	Start, End   int
	Succs, Preds []int
}

func refCFG(p *vm.Program, f vm.FuncInfo) (blocks []*refBlock, exit int) {
	n := f.End - f.Entry
	leader := make([]bool, n)
	leader[0] = true
	indirect := false
	for pc := f.Entry; pc < f.End; pc++ {
		in := &p.Code[pc]
		switch in.Op {
		case vm.OpJmp, vm.OpJz, vm.OpJnz:
			if t := int(in.Imm); t >= f.Entry && t < f.End {
				leader[t-f.Entry] = true
			}
		case vm.OpJmpInd:
			indirect = true
		}
		if ends, _ := endsBlock(in); ends && pc+1 < f.End {
			leader[pc+1-f.Entry] = true
		}
	}
	blockOf := make([]int, n)
	var cur *refBlock
	for i := 0; i < n; i++ {
		if leader[i] {
			cur = &refBlock{Start: f.Entry + i}
			blocks = append(blocks, cur)
		}
		cur.End = f.Entry + i + 1
		blockOf[i] = len(blocks) - 1
	}
	exit = len(blocks)
	blocks = append(blocks, &refBlock{Start: f.End, End: f.End})
	var leaders []int
	if indirect {
		for id := range exit {
			leaders = append(leaders, id)
		}
	}
	inFn := func(t int) int {
		if t >= f.Entry && t < f.End {
			return blockOf[t-f.Entry]
		}
		return exit
	}
	for id, b := range blocks[:exit] {
		last := &p.Code[b.End-1]
		var succs []int
		ends, isExit := endsBlock(last)
		switch {
		case isExit:
			succs = []int{exit}
		case !ends:
			succs = []int{inFn(b.End)}
		case last.Op == vm.OpJmp:
			succs = []int{inFn(int(last.Imm))}
		case last.Op == vm.OpJz || last.Op == vm.OpJnz:
			succs = []int{inFn(b.End), inFn(int(last.Imm))}
		case last.Op == vm.OpJmpInd:
			succs = append([]int(nil), leaders...)
		}
		seen := map[int]bool{}
		for _, s := range succs {
			if !seen[s] {
				seen[s] = true
				b.Succs = append(b.Succs, s)
				blocks[s].Preds = append(blocks[s].Preds, id)
			}
		}
	}
	return blocks, exit
}

// randomProgram assembles n instructions of jumps (in and out of range),
// indirect jumps, calls, returns, halts, exit syscalls and plain
// instructions, under a random function table whose ranges may overlap,
// be empty, or fall outside the code.
func randomProgram(rng *rand.Rand) *vm.Program {
	n := 1 + rng.Intn(40)
	p := &vm.Program{Code: make([]vm.Instr, n)}
	ops := []vm.Op{vm.OpJmp, vm.OpJz, vm.OpJnz, vm.OpJmpInd, vm.OpCall, vm.OpRet, vm.OpHalt, vm.OpSys, vm.OpAdd, vm.OpConst}
	for i := range p.Code {
		in := vm.Instr{Op: ops[rng.Intn(len(ops))], Imm: int32(rng.Intn(n+4) - 2)}
		if in.Op == vm.OpSys {
			in.Imm = int32([]int{vm.SysExit, vm.SysRead, vm.SysWrite}[rng.Intn(3)])
		}
		p.Code[i] = in
	}
	for range 1 + rng.Intn(4) {
		entry := rng.Intn(n+2) - 1
		p.Funcs = append(p.Funcs, vm.FuncInfo{Name: fmt.Sprint("f", entry), Entry: entry, End: entry + rng.Intn(n+1)})
	}
	p.Entry = rng.Intn(n)
	return p
}

// TestBuildCFGMatchesReference compares BuildCFG with the reference
// builder on random programs, and the cycle marks with a reachability
// check: a block is cyclic when it can reach itself.
func TestBuildCFGMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3000; trial++ {
		p := randomProgram(rng)
		cfgs := BuildCFG(p)
		var want []vm.FuncInfo
		for _, f := range p.Funcs {
			if validFunc(p, f) {
				want = append(want, f)
			}
		}
		if len(cfgs) != len(want) {
			t.Fatalf("trial %d: %d CFGs, want %d", trial, len(cfgs), len(want))
		}
		var scc sccs
		for fi, c := range cfgs {
			ref, exit := refCFG(p, want[fi])
			if c.Exit != exit || len(c.Blocks) != len(ref) {
				t.Fatalf("trial %d func %d: exit %d of %d blocks, want %d of %d", trial, fi, c.Exit, len(c.Blocks), exit, len(ref))
			}
			for i, b := range c.Blocks {
				r := ref[i]
				if b.ID != i || b.Start != r.Start || b.End != r.End || !slices.Equal(b.Succs, r.Succs) || !slices.Equal(b.Preds, r.Preds) {
					t.Fatalf("trial %d func %d block %d: %+v, want %+v", trial, fi, i, b, *r)
				}
				if cap(b.Succs) != len(b.Succs) || cap(b.Preds) != len(b.Preds) {
					t.Fatalf("trial %d func %d block %d: lists carved with spare room: %d/%d %d/%d", trial, fi, i, len(b.Succs), cap(b.Succs), len(b.Preds), cap(b.Preds))
				}
			}
			cyclic := make([]bool, len(c.Blocks))
			blockCycles(c, &scc, cyclic)
			for v := range c.Blocks {
				if got, want := cyclic[v], reachesItself(c, v); got != want {
					t.Fatalf("trial %d func %d block %d: cyclic %v, want %v", trial, fi, v, got, want)
				}
			}
		}
	}
}

func reachesItself(c *FuncCFG, v int) bool {
	seen := make([]bool, len(c.Blocks))
	stack := append([]int(nil), c.Blocks[v].Succs...)
	for len(stack) > 0 {
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if w == v {
			return true
		}
		if !seen[w] {
			seen[w] = true
			stack = append(stack, c.Blocks[w].Succs...)
		}
	}
	return false
}
