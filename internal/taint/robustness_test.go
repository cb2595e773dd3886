package taint_test

// Robustness fuzz at the instruction level: random (valid) instruction
// sequences run under the tracker. Whatever the program does, the tracker
// must not panic, the produced graph must satisfy its structural
// invariants, and the measured flow can never exceed the amount of secret
// data that entered (8 bits per secret input byte) — the analysis's global
// soundness ceiling.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flowcheck/internal/maxflow"
	"flowcheck/internal/taint"
	"flowcheck/internal/vm"
)

const (
	fuzzMemBase = int32(vm.DataBase)
	fuzzMemSpan = 1 << 12 // all memory ops land in [DataBase, DataBase+4K)
)

// genInstr emits one random instruction that cannot trap (addresses are
// masked into a valid window, divisors forced nonzero, jumps skipped).
func genInstr(rng *rand.Rand, code *[]vm.Instr) {
	reg := func() uint8 { return uint8(rng.Intn(6)) } // R0..R5; leave SP/BP alone
	emit := func(in vm.Instr) { *code = append(*code, in) }

	switch rng.Intn(10) {
	case 0: // const
		emit(vm.Instr{Op: vm.OpConst, A: reg(), Imm: int32(rng.Uint32())})
	case 1: // mov
		emit(vm.Instr{Op: vm.OpMov, A: reg(), B: reg()})
	case 2, 3: // binary ALU (division via forced-nonzero divisor)
		ops := []vm.Op{vm.OpAdd, vm.OpSub, vm.OpMul, vm.OpAnd, vm.OpOr, vm.OpXor,
			vm.OpShl, vm.OpShrU, vm.OpShrS, vm.OpCmpEQ, vm.OpCmpLTU, vm.OpCmpLTS}
		emit(vm.Instr{Op: ops[rng.Intn(len(ops))], A: reg(), B: reg(), C: reg()})
	case 4: // division with a safe divisor
		d := reg()
		emit(vm.Instr{Op: vm.OpConst, A: d, Imm: int32(1 + rng.Intn(100))})
		ops := []vm.Op{vm.OpDivU, vm.OpDivS, vm.OpModU, vm.OpModS}
		emit(vm.Instr{Op: ops[rng.Intn(len(ops))], A: reg(), B: reg(), C: d})
	case 5: // unary / sub-register
		switch rng.Intn(3) {
		case 0:
			emit(vm.Instr{Op: vm.OpNot, A: reg(), B: reg()})
		case 1:
			emit(vm.Instr{Op: vm.OpNeg, A: reg(), B: reg()})
		default:
			emit(vm.Instr{Op: vm.OpExtB, A: reg(), B: reg(), Imm: int32(rng.Intn(4))})
		}
	case 6: // masked load
		a := reg()
		emit(vm.Instr{Op: vm.OpConst, A: vm.R5, Imm: int32(fuzzMemSpan - 8)})
		emit(vm.Instr{Op: vm.OpAnd, A: a, B: a, C: vm.R5})
		emit(vm.Instr{Op: vm.OpConst, A: vm.R5, Imm: fuzzMemBase})
		emit(vm.Instr{Op: vm.OpAdd, A: a, B: a, C: vm.R5})
		w := []uint8{1, 2, 4}[rng.Intn(3)]
		emit(vm.Instr{Op: vm.OpLoad, A: reg(), B: a, W: w})
	case 7: // masked store
		a := reg()
		emit(vm.Instr{Op: vm.OpConst, A: vm.R5, Imm: int32(fuzzMemSpan - 8)})
		emit(vm.Instr{Op: vm.OpAnd, A: a, B: a, C: vm.R5})
		emit(vm.Instr{Op: vm.OpConst, A: vm.R5, Imm: fuzzMemBase})
		emit(vm.Instr{Op: vm.OpAdd, A: a, B: a, C: vm.R5})
		w := []uint8{1, 2, 4}[rng.Intn(3)]
		emit(vm.Instr{Op: vm.OpStore, A: a, B: reg(), W: w})
	case 8: // forward branch over one instruction
		c := reg()
		target := int32(len(*code) + 2)
		op := vm.OpJz
		if rng.Intn(2) == 0 {
			op = vm.OpJnz
		}
		emit(vm.Instr{Op: op, A: c, Imm: target})
		emit(vm.Instr{Op: vm.OpConst, A: reg(), Imm: int32(rng.Intn(256))})
	case 9: // output
		if rng.Intn(2) == 0 {
			emit(vm.Instr{Op: vm.OpSys, Imm: vm.SysPutc})
		} else {
			// write(1, base, small)
			emit(vm.Instr{Op: vm.OpConst, A: vm.R0, Imm: 1})
			emit(vm.Instr{Op: vm.OpConst, A: vm.R1, Imm: fuzzMemBase})
			emit(vm.Instr{Op: vm.OpConst, A: vm.R2, Imm: int32(rng.Intn(16))})
			emit(vm.Instr{Op: vm.OpSys, Imm: vm.SysWrite})
		}
	}
}

func genMachineProgram(seed int64) (*vm.Program, int) {
	rng := rand.New(rand.NewSource(seed))
	var code []vm.Instr
	secretBytes := 1 + rng.Intn(32)
	// read(secret, base, secretBytes)
	code = append(code,
		vm.Instr{Op: vm.OpConst, A: vm.R0, Imm: vm.StreamSecret},
		vm.Instr{Op: vm.OpConst, A: vm.R1, Imm: fuzzMemBase},
		vm.Instr{Op: vm.OpConst, A: vm.R2, Imm: int32(secretBytes)},
		vm.Instr{Op: vm.OpSys, Imm: vm.SysRead},
	)
	n := 20 + rng.Intn(100)
	for i := 0; i < n; i++ {
		genInstr(rng, &code)
	}
	code = append(code, vm.Instr{Op: vm.OpHalt})
	return &vm.Program{Code: code, Sites: []vm.SiteInfo{{}}}, secretBytes
}

func TestTrackerRobustnessOnRandomCode(t *testing.T) {
	prop := func(seed int64) bool {
		prog, secretBytes := genMachineProgram(seed)
		for _, exact := range []bool{false, true} {
			tr := taint.New(taint.Options{Exact: exact})
			m := vm.NewMachineSize(prog, 1<<16)
			m.SecretIn = make([]byte, secretBytes)
			for i := range m.SecretIn {
				m.SecretIn[i] = byte(seed>>uint(i%8) + int64(i)*31)
			}
			m.MaxSteps = 100000
			tr.Attach(m)
			if err := m.Run(); err != nil {
				t.Logf("seed %d trapped (generator bug?): %v", seed, err)
				return false
			}
			g := tr.Graph()
			if err := g.Validate(); err != nil {
				t.Logf("seed %d: invalid graph: %v", seed, err)
				return false
			}
			flow := maxflow.Compute(g).Flow
			if flow > int64(8*secretBytes) {
				t.Logf("seed %d: flow %d exceeds secret input %d bits", seed, flow, 8*secretBytes)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
