package static

import (
	"testing"

	"flowcheck/internal/vm"
)

func TestClassifyWrites(t *testing.T) {
	// One block exercising all three store classes, including the
	// compiler's push/pop address shuffle.
	code := []vm.Instr{
		/* 0 */ {Op: vm.OpConst, A: vm.R0, Imm: 4096},
		/* 1 */ {Op: vm.OpStore, A: vm.R0, B: vm.R1, W: 4}, // constant data address: global
		/* 2 */ {Op: vm.OpConst, A: vm.R1, Imm: -8},
		/* 3 */ {Op: vm.OpAdd, A: vm.R0, B: vm.BP, C: vm.R1},
		/* 4 */ {Op: vm.OpStore, A: vm.R0, B: vm.R2, W: 4}, // BP-8: frame
		/* 5 */ {Op: vm.OpPush, B: vm.R0},
		/* 6 */ {Op: vm.OpConst, A: vm.R0, Imm: 7},
		/* 7 */ {Op: vm.OpPop, A: vm.R1},
		/* 8 */ {Op: vm.OpStore, A: vm.R1, B: vm.R0, W: 1}, // frame address via push/pop
		/* 9 */ {Op: vm.OpLoad, A: vm.R2, B: vm.R0, W: 4},
		/* 10 */ {Op: vm.OpStore, A: vm.R2, B: vm.R0, W: 4}, // loaded pointer: dynamic
		/* 11 */ {Op: vm.OpStore, A: vm.BP, B: vm.R0, Imm: -4, W: 4}, // BP+disp: frame
		/* 12 */ {Op: vm.OpHalt},
	}
	p := oneFunc("f", code)
	kinds := ClassifyWrites(p, BuildCFG(p))
	want := map[int]WriteKind{
		1:  WriteGlobal,
		4:  WriteFrame,
		8:  WriteFrame,
		10: WriteDynamic,
		11: WriteFrame,
	}
	if len(kinds) != len(want) {
		t.Fatalf("classified %d stores, want %d: %v", len(kinds), len(want), kinds)
	}
	for pc, k := range want {
		if kinds[pc] != k {
			t.Errorf("pc %d: classified %v, want %v", pc, kinds[pc], k)
		}
	}

	w := CountWrites(p, kinds, 0, len(code)-1)
	if w.Global != 1 || w.Frame != 3 || w.Dynamic != 1 || w.Calls != 0 {
		t.Fatalf("counts = %+v, want global=1 frame=3 dynamic=1 calls=0", w)
	}
	if w.Found() != 4 {
		t.Fatalf("Found() = %d, want 4", w.Found())
	}
}

// A call clobbers the scratch registers (the callee's writes are the
// interprocedural column), but values parked on the stack survive it.
func TestClassifyWritesAcrossCall(t *testing.T) {
	code := []vm.Instr{
		/* 0 */ {Op: vm.OpConst, A: vm.R1, Imm: -4},
		/* 1 */ {Op: vm.OpAdd, A: vm.R0, B: vm.BP, C: vm.R1},
		/* 2 */ {Op: vm.OpPush, B: vm.R0},
		/* 3 */ {Op: vm.OpCall, Imm: 8},
		/* 4 */ {Op: vm.OpStore, A: vm.R0, B: vm.R1, W: 4}, // R0 clobbered by callee: dynamic
		/* 5 */ {Op: vm.OpPop, A: vm.R2},
		/* 6 */ {Op: vm.OpStore, A: vm.R2, B: vm.R1, W: 4}, // stack slot survived: frame
		/* 7 */ {Op: vm.OpHalt},
		/* 8 */ {Op: vm.OpRet}, // callee
	}
	p := oneFunc("f", code)
	kinds := ClassifyWrites(p, BuildCFG(p))
	if kinds[4] != WriteDynamic {
		t.Errorf("store after call through clobbered register: %v, want dynamic", kinds[4])
	}
	if kinds[6] != WriteFrame {
		t.Errorf("store through call-surviving stack slot: %v, want frame", kinds[6])
	}
	w := CountWrites(p, kinds, 0, 7)
	if w.Calls != 1 {
		t.Fatalf("calls = %d, want 1", w.Calls)
	}
}

// WriteKind classifies one store instruction.
type WriteKind int

const (
	WriteGlobal  WriteKind = iota // constant data address
	WriteFrame                    // constant frame-pointer offset
	WriteDynamic                  // address not statically resolvable
)

func (k WriteKind) String() string {
	switch k {
	case WriteGlobal:
		return "global"
	case WriteFrame:
		return "frame"
	case WriteDynamic:
		return "dynamic"
	}
	return "?"
}

// WriteCounts aggregates a range's stores per kind, plus the calls that
// leave the range (Figure 6's interprocedural outputs).
type WriteCounts struct {
	Global  int
	Frame   int
	Dynamic int
	Calls   int
}

// Found returns the directly-classified store count (Figure 6 "found").
func (w WriteCounts) Found() int { return w.Global + w.Frame }

// ClassifyWrites runs the store classification over every CFG and
// returns the kind of each store instruction, indexed by pc (stores
// only; other pcs are absent).
func ClassifyWrites(p *vm.Program, cfgs []*FuncCFG) map[int]WriteKind {
	kinds := make(map[int]WriteKind)
	for _, c := range cfgs {
		for i := range c.Blocks[:c.Exit] {
			classifyBlock(p, &c.Blocks[i], kinds)
		}
	}
	return kinds
}

func classifyBlock(p *vm.Program, b *Block, kinds map[int]WriteKind) {
	var regs [vm.NumRegs]absVal
	for i := range regs {
		regs[i] = top
	}
	regs[vm.BP] = absVal{kind: absBP}

	// The compiler routes operands through push/pop pairs (evaluate
	// address, push, evaluate value, pop address back), so an abstract
	// operand stack is needed to see frame addresses at all. A pop past
	// the values pushed in this block yields ⊤; call/ret leave SP
	// balanced, so pushed values survive a call (though registers do not).
	var stk []absVal

	for pc := b.Start; pc < b.End; pc++ {
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
		case vm.OpStore:
			addr := absAdd(regs[in.A], absVal{kind: absConst, off: int64(in.Imm)})
			switch addr.kind {
			case absConst:
				kinds[pc] = WriteGlobal
			case absBP:
				kinds[pc] = WriteFrame
			default:
				kinds[pc] = WriteDynamic
			}
		case vm.OpLoad:
			regs[in.A] = top
		case vm.OpCall, vm.OpCallInd:
			// Callee clobbers scratch registers; MiniC's convention
			// preserves SP/BP (and the words already pushed) across calls.
			for r := 0; r < vm.SP; r++ {
				regs[r] = top
			}
		case vm.OpSys, vm.OpJmp, vm.OpJz, vm.OpJnz,
			vm.OpJmpInd, vm.OpRet, vm.OpHalt, vm.OpNop:
			// No register results (OpSys writes R0).
			if in.Op == vm.OpSys {
				regs[vm.R0] = top
			}
		default:
			// Remaining ALU/compare/byte ops produce unknown values.
			regs[in.A] = top
		}
	}
}

// CountWrites tallies the classified stores and calls within the
// instruction range [start, end].
func CountWrites(p *vm.Program, kinds map[int]WriteKind, start, end int) WriteCounts {
	var w WriteCounts
	for pc := start; pc <= end && pc < len(p.Code); pc++ {
		if k, ok := kinds[pc]; ok {
			switch k {
			case WriteGlobal:
				w.Global++
			case WriteFrame:
				w.Frame++
			case WriteDynamic:
				w.Dynamic++
			}
		}
		switch p.Code[pc].Op {
		case vm.OpCall, vm.OpCallInd:
			w.Calls++
		}
	}
	return w
}
