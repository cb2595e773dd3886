package vm

import (
	"errors"
	"fmt"
	"slices"
)

// DataBase is the lowest mapped guest address. Addresses below it trap, so
// null-pointer dereferences are caught.
const DataBase Word = 0x1000

// DefaultMemSize is the default guest memory size in bytes.
const DefaultMemSize = 4 << 20

// DefaultMaxSteps bounds runaway executions.
const DefaultMaxSteps = 2_000_000_000

// DefaultCheckEvery is the step interval at which Run polls the Check hook
// when none is configured. It is large enough that the per-step overhead is
// a single decrement, yet small enough that a stuck guest is interrupted
// within microseconds.
const DefaultCheckEvery = 4096

// TrapKind classifies why a trap occurred. Genuine guest faults (bad
// memory, division by zero, illegal opcodes) are distinguished from the
// machine's own step budget running out: a step-limit trap says nothing
// about the guest, only that the caller bounded it.
type TrapKind uint8

// Trap kinds.
const (
	TrapFault     TrapKind = iota // the guest performed an illegal operation
	TrapStepLimit                 // MaxSteps was exhausted
)

// ErrStepLimit matches (with errors.Is) any trap caused by step-budget
// exhaustion rather than a guest fault.
var ErrStepLimit = errors.New("vm: step limit exhausted")

// Trap is a runtime fault in guest execution.
type Trap struct {
	PC   int
	Site uint32
	Msg  string
	Kind TrapKind
}

func (t *Trap) Error() string { return fmt.Sprintf("trap at pc=%d: %s", t.PC, t.Msg) }

// Is reports typed-sentinel matches: errors.Is(err, ErrStepLimit) holds
// exactly for step-limit traps.
func (t *Trap) Is(target error) bool {
	return target == ErrStepLimit && t.Kind == TrapStepLimit
}

// Machine executes a Program. Create with NewMachine, set inputs, then Run.
type Machine struct {
	Prog *Program
	Regs [NumRegs]Word
	PC   int

	// Halted and ExitCode are set when the program exits.
	Halted   bool
	ExitCode Word

	// PublicIn and SecretIn are the two input streams of the analysis: the
	// secret input is the data whose disclosure is being measured (§1).
	PublicIn []byte
	SecretIn []byte
	pubPos   int
	secPos   int

	// Output accumulates the public output.
	Output []byte

	// Tracer receives instrumentation events; nil runs uninstrumented.
	Tracer Tracer

	// AfterInstr, when non-nil, is invoked after each instruction's
	// architectural effect (used by the lockstep checker of §6.3).
	AfterInstr func(m *Machine, in *Instr)

	// Steps counts executed instructions; MaxSteps bounds them.
	Steps    uint64
	MaxSteps uint64

	// Check, when non-nil, is polled by Run every CheckEvery steps
	// (DefaultCheckEvery when zero). A non-nil return aborts the run with
	// that error. It is the machine's cancellation and resource-budget
	// seam: the analysis engine uses it to poll context deadlines, output
	// and graph budgets, and injected faults without paying a per-step
	// cost.
	Check      func(m *Machine) error
	CheckEvery uint64

	// Guest memory: size is the configured address-space size every access
	// is bounds-checked against; the page tables are described in
	// memory.go.
	size    int
	pages   PageTable[page]
	written PageTable[page]
	dirty   []uint32
	image   PageTable[page] // the program's shared data image
}

// NewMachine creates a machine with the program's data segment loaded and
// the stack pointer at the top of memory.
func NewMachine(p *Program) *Machine {
	return NewMachineSize(p, DefaultMemSize)
}

// NewMachineSize creates a machine with the given memory size. It
// allocates no page: it reads the program's shared data image, and the
// rest of memory is allocated a page at a time as the guest writes it.
func NewMachineSize(p *Program, memSize int) *Machine {
	if memSize < int(DataBase)+len(p.Data) {
		panic("vm: memory too small for data segment")
	}
	m := &Machine{
		Prog:     p,
		PC:       p.Entry,
		MaxSteps: DefaultMaxSteps,
	}
	m.initMemory(memSize)
	m.Regs[SP] = Word(memSize)
	m.Regs[BP] = Word(memSize)
	return m
}

// Reset returns the machine to its initial state for a fresh run of the
// same program, reusing its memory pages: of the pages written since the
// last reset, a private copy of a data-image page gets the image back,
// and the others are cleared.
// Registers are cleared, and the stack pointer is at the top of memory.
// Its cost scales with the pages the run wrote, not with the memory size,
// and it never writes a shared page. Inputs and hooks are detached, and
// Output is released rather than truncated — the previous run's Result
// may still hold it.
func (m *Machine) Reset() {
	m.resetMemory()
	m.Regs = [NumRegs]Word{}
	m.Regs[SP] = Word(m.size)
	m.Regs[BP] = Word(m.size)
	m.PC = m.Prog.Entry
	m.Halted = false
	m.ExitCode = 0
	m.PublicIn, m.SecretIn = nil, nil
	m.pubPos, m.secPos = 0, 0
	m.Output = nil
	m.Tracer = nil
	m.AfterInstr = nil
	m.Steps = 0
	m.Check = nil
	m.CheckEvery = 0
}

func (m *Machine) trap(in *Instr, format string, args ...interface{}) error {
	return &Trap{PC: m.PC, Site: in.Site, Msg: fmt.Sprintf(format, args...) + " at " + m.Prog.SiteString(in.Site)}
}

// checkMem validates an n-byte access at addr.
func (m *Machine) checkMem(addr Word, n int) bool {
	return addr >= DataBase && int(addr)+n <= m.size && int(addr)+n > 0
}

// LoadWord reads a little-endian word from guest memory (no tracing); it is
// a helper for syscall argument decoding and tests.
func (m *Machine) LoadWord(addr Word) (Word, bool) {
	if !m.checkMem(addr, 4) {
		return 0, false
	}
	return m.load32(addr), true
}

// Bytes returns a copy of the guest memory range [addr, addr+n), or nil if
// out of bounds. Writing to the copy does not change guest memory; use
// SetBytes for that.
func (m *Machine) Bytes(addr Word, n int) []byte {
	if n < 0 || !m.checkMem(addr, n) {
		return nil
	}
	b := make([]byte, n)
	m.readInto(b, addr)
	return b
}

// SetBytes copies data into guest memory at addr (no tracing). It reports
// false, writing nothing, if the range is out of bounds.
func (m *Machine) SetBytes(addr Word, data []byte) bool {
	if !m.checkMem(addr, len(data)) {
		return false
	}
	m.writeFrom(addr, data)
	return true
}

// Run executes until the program halts, a trap occurs, or the Check hook
// rejects the run.
func (m *Machine) Run() error {
	if m.Check == nil {
		for !m.Halted {
			if err := m.Step(); err != nil {
				return err
			}
		}
		return nil
	}
	every := m.CheckEvery
	if every == 0 {
		every = DefaultCheckEvery
	}
	// Poll once up front so an already-expired deadline or already-blown
	// budget stops even a run shorter than one interval.
	if err := m.Check(m); err != nil {
		return err
	}
	next := m.Steps + every
	for !m.Halted {
		if err := m.Step(); err != nil {
			return err
		}
		if m.Steps >= next {
			if err := m.Check(m); err != nil {
				return err
			}
			next = m.Steps + every
		}
	}
	return nil
}

// Step executes one instruction.
func (m *Machine) Step() error {
	if m.Halted {
		return nil
	}
	if m.PC < 0 || m.PC >= len(m.Prog.Code) {
		return &Trap{PC: m.PC, Msg: "program counter outside code"}
	}
	if m.Steps >= m.MaxSteps {
		in := &m.Prog.Code[m.PC]
		t := m.trap(in, "step limit (%d) exhausted", m.MaxSteps)
		t.(*Trap).Kind = TrapStepLimit
		return t
	}
	m.Steps++
	in := &m.Prog.Code[m.PC]
	t := m.Tracer
	nextPC := m.PC + 1

	switch in.Op {
	case OpNop:

	case OpConst:
		if t != nil {
			t.Const(in.Site, int(in.A))
		}
		m.Regs[in.A] = Word(in.Imm)

	case OpMov:
		if t != nil {
			t.Mov(in.Site, int(in.A), int(in.B))
		}
		m.Regs[in.A] = m.Regs[in.B]

	case OpAdd, OpSub, OpMul, OpDivS, OpDivU, OpModS, OpModU,
		OpAnd, OpOr, OpXor, OpShl, OpShrU, OpShrS,
		OpCmpEQ, OpCmpNE, OpCmpLTS, OpCmpLES, OpCmpLTU, OpCmpLEU:
		va, vb := m.Regs[in.B], m.Regs[in.C]
		switch in.Op {
		case OpDivS, OpDivU, OpModS, OpModU:
			if vb == 0 {
				return m.trap(in, "division by zero")
			}
		}
		if t != nil {
			t.Binop(in.Site, in.Op, int(in.A), int(in.B), int(in.C), va, vb)
		}
		m.Regs[in.A] = evalBinop(in.Op, va, vb)

	case OpNot, OpNeg:
		vs := m.Regs[in.B]
		if t != nil {
			t.Unop(in.Site, in.Op, int(in.A), int(in.B), vs)
		}
		if in.Op == OpNot {
			m.Regs[in.A] = ^vs
		} else {
			m.Regs[in.A] = -vs
		}

	case OpExtB:
		idx := int(in.Imm) & 3
		if t != nil {
			t.ExtB(in.Site, int(in.A), int(in.B), idx)
		}
		m.Regs[in.A] = (m.Regs[in.B] >> (8 * uint(idx))) & 0xFF

	case OpInsB:
		idx := int(in.Imm) & 3
		if t != nil {
			t.InsB(in.Site, int(in.A), int(in.B), idx)
		}
		sh := 8 * uint(idx)
		m.Regs[in.A] = (m.Regs[in.A] &^ (0xFF << sh)) | ((m.Regs[in.B] & 0xFF) << sh)

	case OpLoad:
		n := int(in.W)
		addr := m.Regs[in.B] + Word(in.Imm)
		if !m.checkMem(addr, n) {
			return m.trap(in, "load of %d bytes at %#x out of bounds", n, addr)
		}
		if t != nil {
			t.Load(in.Site, int(in.A), int(in.B), addr, n)
		}
		var v Word
		ok := true
		switch n {
		case 1:
			v = Word(m.loadByte(addr))
		case 2:
			v, ok = m.tryLoad16(addr)
		case 4:
			v, ok = m.tryLoad32(addr)
		default:
			return m.trap(in, "bad load width %d", n)
		}
		if !ok {
			v = m.loadSlow(addr, n)
		}
		m.Regs[in.A] = v

	case OpStore:
		n := int(in.W)
		addr := m.Regs[in.A] + Word(in.Imm)
		if !m.checkMem(addr, n) {
			return m.trap(in, "store of %d bytes at %#x out of bounds", n, addr)
		}
		if t != nil {
			t.Store(in.Site, int(in.A), addr, int(in.B), n)
		}
		v := m.Regs[in.B]
		ok := true
		switch n {
		case 1:
			m.storeByte(addr, byte(v))
		case 2:
			ok = m.tryStore16(addr, v)
		case 4:
			ok = m.tryStore32(addr, v)
		default:
			return m.trap(in, "bad store width %d", n)
		}
		if !ok {
			m.storeSlow(addr, n, v)
		}

	case OpJmp:
		nextPC = int(in.Imm)

	case OpJz, OpJnz:
		v := m.Regs[in.A]
		taken := (v == 0) == (in.Op == OpJz)
		if t != nil {
			t.Branch(in.Site, int(in.A), taken)
		}
		if taken {
			nextPC = int(in.Imm)
		}

	case OpJmpInd:
		target := m.Regs[in.A]
		if t != nil {
			t.JmpInd(in.Site, int(in.A), target)
		}
		nextPC = int(target)

	case OpCall, OpCallInd:
		var target int
		if in.Op == OpCall {
			target = int(in.Imm)
		} else {
			target = int(m.Regs[in.A])
			if t != nil {
				t.JmpInd(in.Site, int(in.A), Word(target))
			}
		}
		sp := m.Regs[SP] - 4
		if !m.checkMem(sp, 4) {
			return m.trap(in, "stack overflow on call")
		}
		if t != nil {
			t.Call(in.Site, target)
			t.Push(in.Site, -1, sp) // return address is public
		}
		if ret := Word(m.PC + 1); !m.tryStore32(sp, ret) {
			m.storeSlow(sp, 4, ret)
		}
		m.Regs[SP] = sp
		nextPC = target

	case OpRet:
		sp := m.Regs[SP]
		if !m.checkMem(sp, 4) {
			return m.trap(in, "stack underflow on ret")
		}
		if t != nil {
			t.Ret(in.Site)
		}
		ret, ok := m.tryLoad32(sp)
		if !ok {
			ret = m.loadSlow(sp, 4)
		}
		nextPC = int(ret)
		m.Regs[SP] = sp + 4

	case OpPush:
		sp := m.Regs[SP] - 4
		if !m.checkMem(sp, 4) {
			return m.trap(in, "stack overflow on push")
		}
		if t != nil {
			t.Push(in.Site, int(in.B), sp)
		}
		if v := m.Regs[in.B]; !m.tryStore32(sp, v) {
			m.storeSlow(sp, 4, v)
		}
		m.Regs[SP] = sp

	case OpPop:
		sp := m.Regs[SP]
		if !m.checkMem(sp, 4) {
			return m.trap(in, "stack underflow on pop")
		}
		if t != nil {
			t.Pop(in.Site, int(in.A), sp)
		}
		v, ok := m.tryLoad32(sp)
		if !ok {
			v = m.loadSlow(sp, 4)
		}
		m.Regs[in.A] = v
		m.Regs[SP] = sp + 4

	case OpSys:
		if err := m.syscall(in); err != nil {
			return err
		}

	case OpHalt:
		if t != nil {
			t.Exit(in.Site, R0)
		}
		m.Halted = true
		m.ExitCode = m.Regs[R0]

	default:
		return m.trap(in, "illegal opcode %v", in.Op)
	}

	m.PC = nextPC
	if m.AfterInstr != nil {
		m.AfterInstr(m, in)
	}
	return nil
}

func evalBinop(op Op, a, b Word) Word {
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpDivS:
		if int32(a) == -1<<31 && int32(b) == -1 {
			return a // overflow wraps, like x86 would fault; define as identity
		}
		return Word(int32(a) / int32(b))
	case OpDivU:
		return a / b
	case OpModS:
		if int32(a) == -1<<31 && int32(b) == -1 {
			return 0
		}
		return Word(int32(a) % int32(b))
	case OpModU:
		return a % b
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpShl:
		return a << (b & 31)
	case OpShrU:
		return a >> (b & 31)
	case OpShrS:
		return Word(int32(a) >> (b & 31))
	case OpCmpEQ:
		return b2w(a == b)
	case OpCmpNE:
		return b2w(a != b)
	case OpCmpLTS:
		return b2w(int32(a) < int32(b))
	case OpCmpLES:
		return b2w(int32(a) <= int32(b))
	case OpCmpLTU:
		return b2w(a < b)
	case OpCmpLEU:
		return b2w(a <= b)
	}
	panic("evalBinop: not a binop: " + op.String())
}

func b2w(b bool) Word {
	if b {
		return 1
	}
	return 0
}

func (m *Machine) syscall(in *Instr) error {
	t := m.Tracer
	switch int(in.Imm) {
	case SysExit:
		if t != nil {
			t.Exit(in.Site, R0)
		}
		m.Halted = true
		m.ExitCode = m.Regs[R0]

	case SysRead:
		stream, buf, n := m.Regs[R0], m.Regs[R1], int(m.Regs[R2])
		if n < 0 || !m.checkMem(buf, n) {
			return m.trap(in, "read buffer %#x+%d out of bounds", buf, n)
		}
		var src []byte
		var pos *int
		secret := stream == StreamSecret
		if secret {
			src, pos = m.SecretIn, &m.secPos
		} else {
			src, pos = m.PublicIn, &m.pubPos
		}
		avail := len(src) - *pos
		if n > avail {
			n = avail
		}
		data := src[*pos : *pos+n]
		m.writeFrom(buf, data)
		*pos += n
		if t != nil {
			t.ReadInput(in.Site, buf, data, secret)
		}
		m.Regs[R0] = Word(n)

	case SysWrite:
		buf, n := m.Regs[R1], int(m.Regs[R2])
		if n < 0 || !m.checkMem(buf, n) {
			return m.trap(in, "write buffer %#x+%d out of bounds", buf, n)
		}
		out := len(m.Output)
		m.Output = slices.Grow(m.Output, n)[:out+n]
		data := m.Output[out:]
		m.readInto(data, buf)
		if t != nil {
			t.WriteOutput(in.Site, buf, data, -1)
		}
		m.Regs[R0] = Word(n)

	case SysPutc:
		c := byte(m.Regs[R0])
		if t != nil {
			t.WriteOutput(in.Site, 0, []byte{c}, R0)
		}
		m.Output = append(m.Output, c)

	case SysMarkSecret, SysDeclassify:
		addr, n := m.Regs[R1], m.Regs[R2]
		if !m.checkMem(addr, int(n)) {
			return m.trap(in, "mark range %#x+%d out of bounds", addr, n)
		}
		if t != nil {
			if int(in.Imm) == SysMarkSecret {
				t.MarkSecret(in.Site, addr, n)
			} else {
				t.Declassify(in.Site, addr, n)
			}
		}

	case SysEnterRegion:
		desc := m.Regs[R1]
		cnt, ok := m.LoadWord(desc)
		if !ok || cnt > 1024 {
			return m.trap(in, "bad enclosure descriptor at %#x", desc)
		}
		outs := make([]Range, 0, cnt)
		for i := Word(0); i < cnt; i++ {
			a, ok1 := m.LoadWord(desc + 4 + 8*i)
			l, ok2 := m.LoadWord(desc + 8 + 8*i)
			if !ok1 || !ok2 {
				return m.trap(in, "bad enclosure descriptor entry %d", i)
			}
			outs = append(outs, Range{Addr: a, Len: l})
		}
		if t != nil {
			t.EnterRegion(in.Site, outs)
		}

	case SysLeaveRegion:
		if t != nil {
			t.LeaveRegion(in.Site)
		}

	case SysFlowNote:
		if t != nil {
			t.FlowNote(in.Site)
		}

	default:
		return m.trap(in, "unknown syscall %d", in.Imm)
	}
	return nil
}
