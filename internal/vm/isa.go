// Package vm implements the 32-bit register machine that stands in for the
// paper's Linux/x86 execution substrate (paper §4).
//
// The paper's tool instruments x86 binaries through Valgrind's dynamic
// rewriting. Here the machine itself exposes instrumentation hooks (Tracer)
// at exactly the granularity the analysis needs: word-sized ALU operations,
// byte-granular loads and stores, conditional and indirect jumps, calls and
// returns, and I/O syscalls. Sub-register accesses (the overlapping %dx /
// %edx registers of §4.1) are expressed as full-register reads combined with
// bitwise extract/insert operations, mirroring how Flowcheck rewrites
// Valgrind IR.
package vm

import (
	"fmt"
	"sync"
)

// Word is the machine word: all registers and ALU operations are 32-bit.
type Word = uint32

// Register indices. There are eight general-purpose registers; by software
// convention SP is the stack pointer and BP the frame pointer.
const (
	R0 = iota
	R1
	R2
	R3
	R4
	R5
	SP
	BP
	NumRegs
)

// Op is an instruction opcode.
type Op uint8

// Instruction set. Operand conventions: A is the destination register (or
// the condition/address register for control flow), B and C are source
// registers, Imm is an immediate or code target.
const (
	OpNop Op = iota

	OpConst // A <- Imm
	OpMov   // A <- B

	// Binary ALU: A <- B op C.
	OpAdd
	OpSub
	OpMul
	OpDivS // signed division; divisor 0 traps
	OpDivU
	OpModS
	OpModU
	OpAnd
	OpOr
	OpXor
	OpShl  // shift amount taken mod 32
	OpShrU // logical right shift
	OpShrS // arithmetic right shift

	// Unary ALU: A <- op B.
	OpNot
	OpNeg

	// Comparisons: A <- (B op C) ? 1 : 0.
	OpCmpEQ
	OpCmpNE
	OpCmpLTS
	OpCmpLES
	OpCmpLTU
	OpCmpLEU

	// Sub-register access (paper §4.1): byte-level views of registers,
	// implemented as full-register operations with bitwise selection.
	OpExtB // A <- byte Imm of B (zero-extended)
	OpInsB // byte Imm of A <- low byte of B (other bytes preserved)

	// Memory. W selects the access width in bytes (1, 2, or 4); loads
	// zero-extend. Imm is a constant displacement added to the address
	// register.
	OpLoad  // A <- mem[B + Imm]
	OpStore // mem[A + Imm] <- B

	// Control flow. Code targets are instruction indices.
	OpJmp     // pc <- Imm
	OpJz      // if A == 0: pc <- Imm
	OpJnz     // if A != 0: pc <- Imm
	OpJmpInd  // pc <- A (jump tables)
	OpCall    // push pc+1; pc <- Imm
	OpCallInd // push pc+1; pc <- A
	OpRet     // pc <- pop

	// Stack sugar.
	OpPush // push B
	OpPop  // A <- pop

	OpSys  // syscall Imm; arguments in R0..R2, result in R0
	OpHalt // stop with exit code in R0
)

var opNames = [...]string{
	OpNop: "nop", OpConst: "const", OpMov: "mov",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDivS: "divs", OpDivU: "divu",
	OpModS: "mods", OpModU: "modu", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpShrU: "shru", OpShrS: "shrs", OpNot: "not", OpNeg: "neg",
	OpCmpEQ: "cmpeq", OpCmpNE: "cmpne", OpCmpLTS: "cmplts", OpCmpLES: "cmples",
	OpCmpLTU: "cmpltu", OpCmpLEU: "cmpleu", OpExtB: "extb", OpInsB: "insb",
	OpLoad: "load", OpStore: "store",
	OpJmp: "jmp", OpJz: "jz", OpJnz: "jnz", OpJmpInd: "jmpind",
	OpCall: "call", OpCallInd: "callind", OpRet: "ret",
	OpPush: "push", OpPop: "pop", OpSys: "sys", OpHalt: "halt",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Syscall numbers (the Imm field of OpSys).
const (
	SysExit        = iota // exit with code R0
	SysRead               // R0 = read(stream R0, buf R1, len R2)
	SysWrite              // R0 = write(fd R0, buf R1, len R2)
	SysPutc               // write one byte from R0 to public output
	SysMarkSecret         // mark mem[R1 .. R1+R2) secret
	SysDeclassify         // mark mem[R1 .. R1+R2) public
	SysEnterRegion        // enter enclosure region; descriptor at R1
	SysLeaveRegion        // leave innermost enclosure region
	SysFlowNote           // recompute/report flow now (KBattleship live mode)
)

// Input stream ids for SysRead.
const (
	StreamPublic = 0
	StreamSecret = 1
)

// Instr is one machine instruction.
type Instr struct {
	Op      Op
	W       uint8 // access width for OpLoad/OpStore (1, 2, or 4)
	A, B, C uint8 // register operands
	Imm     int32 // immediate / code target / displacement / syscall number
	Site    uint32
}

func (in Instr) String() string {
	return fmt.Sprintf("%s a=%d b=%d c=%d imm=%d w=%d", in.Op, in.A, in.B, in.C, in.Imm, in.W)
}

// SiteInfo describes a static code site for diagnostics and edge labels.
type SiteInfo struct {
	File string
	Line int
	Fn   string
}

// FuncInfo records the instruction extent of one compiled function. The
// compiler emits functions contiguously, so [Entry, End) is exactly the
// function's code; the static analyzer uses these extents to build
// per-function CFGs, and diagnostics use them to name a raw PC.
type FuncInfo struct {
	Name  string
	Entry int // first instruction index
	End   int // one past the last instruction index
}

// Range is a byte range of guest memory, used for enclosure-region output
// descriptors and secrecy marking.
type Range struct {
	Addr Word
	Len  Word
}

// Program is a loadable guest program.
type Program struct {
	Code  []Instr
	Data  []byte // initial contents of the global data segment at DataBase
	Entry int    // starting instruction index
	// Sites maps site ids to source locations; index 0 is "unknown".
	Sites []SiteInfo
	// Funcs lists compiled function extents in ascending Entry order
	// (including the synthesized __start). Nil for hand-assembled
	// programs, which then get no per-function static analysis.
	Funcs []FuncInfo
	// Globals maps global symbol names to their data-segment addresses,
	// for tests and debugging.
	Globals map[string]Word

	// image is Data laid out as read-only pages, shared by every machine
	// of the program (memory.go). It is built by the first NewMachine, so
	// Data must not change once a machine of the program exists.
	imageOnce sync.Once
	image     PageTable[page]
}

// dataImage returns the program's shared data image, building it on
// first use.
func (p *Program) dataImage() PageTable[page] {
	p.imageOnce.Do(func() { p.image = buildImage(p.Data) })
	return p.image
}

// SiteString renders a site id as file:line for diagnostics.
func (p *Program) SiteString(site uint32) string {
	if int(site) < len(p.Sites) {
		s := p.Sites[site]
		if s.File != "" {
			return fmt.Sprintf("%s:%d(%s)", s.File, s.Line, s.Fn)
		}
	}
	return fmt.Sprintf("site%d", site)
}

// FuncAt returns the function containing instruction index pc, or nil if
// pc is out of range or the program has no function table.
func (p *Program) FuncAt(pc int) *FuncInfo {
	lo, hi := 0, len(p.Funcs)
	for lo < hi {
		mid := (lo + hi) / 2
		f := &p.Funcs[mid]
		switch {
		case pc < f.Entry:
			hi = mid
		case pc >= f.End:
			lo = mid + 1
		default:
			return f
		}
	}
	return nil
}

// LocString names an instruction index for diagnostics: the per-instruction
// source location (file:line and function) when the program carries one,
// falling back to the raw PC.
func (p *Program) LocString(pc int) string {
	if pc < 0 || pc >= len(p.Code) {
		return fmt.Sprintf("pc=%d", pc)
	}
	if site := p.Code[pc].Site; int(site) < len(p.Sites) && p.Sites[site].File != "" {
		return fmt.Sprintf("%s @pc=%d", p.SiteString(site), pc)
	}
	if f := p.FuncAt(pc); f != nil {
		return fmt.Sprintf("%s+%d @pc=%d", f.Name, pc-f.Entry, pc)
	}
	return fmt.Sprintf("pc=%d", pc)
}
