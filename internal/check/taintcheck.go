// Package check implements the two flow-bound checking techniques of paper
// §6: once the full analysis has found a flow bound and a minimum cut,
// future executions can be checked against the bound much more cheaply.
//
// The tainting-based checker (§6.2) reruns the program under plain
// bit-level tainting; cut sites act as counters that clear taint while
// charging the revealed bits, and any tainted bits reaching an output or an
// implicit-flow operation elsewhere are violations. The output-comparison
// checker (§6.3, Lockstep) runs two mostly-uninstrumented copies — one with
// the real secret, one with an innocuous input — copying only the cut
// values across and comparing outputs.
package check

import (
	"fmt"

	"flowcheck/internal/bits"
	"flowcheck/internal/vm"
)

// Violation records secret data escaping somewhere other than the cut.
type Violation struct {
	Where string
	Bits  int64
	Msg   string
}

func (v Violation) String() string { return fmt.Sprintf("%s: %s (%d bits)", v.Where, v.Msg, v.Bits) }

// TaintResult reports a tainting-based check (§6.2).
type TaintResult struct {
	// RevealedBits counts bits that crossed the cut (the allowed channel).
	RevealedBits int64
	// ViolationBits counts tainted bits that escaped elsewhere.
	ViolationBits int64
	Violations    []Violation
	Output        []byte
	ExitCode      vm.Word
	Steps         uint64
}

// OK reports whether the execution respected the policy: no flows outside
// the cut, and at most budget bits across it.
func (r *TaintResult) OK(budget int64) bool {
	return len(r.Violations) == 0 && r.RevealedBits <= budget
}

// taintChecker is a lightweight vm.Tracer: it propagates secrecy masks
// (without any graph construction), clears taint at cut sites while
// counting the bits revealed, and flags every other escape.
type taintChecker struct {
	m   *vm.Machine
	cut map[uint32]bool
	sh  *shadowMasks
	res *TaintResult

	regMask [vm.NumRegs]bits.Mask
	regions []*checkRegion

	maxViolations int
}

type checkRegion struct {
	declared []vm.Range
	active   bool
}

// RunTaintCheck executes prog under the tainting-based checker. cutSites
// are the instruction addresses of the minimum cut (core.Result.CutSites).
func RunTaintCheck(prog *vm.Program, secret, public []byte, cutSites []uint32) (*TaintResult, error) {
	m := vm.NewMachine(prog)
	m.SecretIn = secret
	m.PublicIn = public
	c := &taintChecker{
		m:             m,
		cut:           map[uint32]bool{},
		sh:            new(shadowMasks),
		res:           &TaintResult{},
		maxViolations: 100,
	}
	for _, s := range cutSites {
		c.cut[s] = true
	}
	m.Tracer = c
	err := m.Run()
	c.res.Output = m.Output
	c.res.ExitCode = m.ExitCode
	c.res.Steps = m.Steps
	return c.res, err
}

func (c *taintChecker) atCut() bool { return c.cut[uint32(c.m.PC)] }

func (c *taintChecker) violate(site uint32, n int64, msg string) {
	c.res.ViolationBits += n
	if len(c.res.Violations) < c.maxViolations {
		c.res.Violations = append(c.res.Violations, Violation{
			Where: c.m.Prog.SiteString(site), Bits: n, Msg: msg,
		})
	}
}

// allow charges n bits to the revealed counter (a cut crossing).
func (c *taintChecker) allow(n int64) { c.res.RevealedBits += n }

// cutFilter clears the mask at a cut site, charging the revealed bits.
func (c *taintChecker) cutFilter(m bits.Mask) bits.Mask {
	if m != 0 && c.atCut() {
		c.allow(int64(bits.Count(m)))
		return 0
	}
	return m
}

// implicitTaint handles a tainted control-flow operation: at a cut site it
// is the allowed channel; inside a region it is deferred to the region's
// outputs; anywhere else it is a violation.
func (c *taintChecker) implicitTaint(site uint32, capBits int64) {
	if capBits == 0 {
		return
	}
	if c.atCut() {
		c.allow(capBits)
		return
	}
	if n := len(c.regions); n > 0 {
		c.regions[n-1].active = true
		return
	}
	c.violate(site, capBits, "implicit flow on tainted data outside cut and regions")
}

// ---------------------------------------------------------------- hooks ---

// Const implements vm.Tracer.
func (c *taintChecker) Const(site uint32, rd int) { c.regMask[rd] = 0 }

// Mov implements vm.Tracer.
func (c *taintChecker) Mov(site uint32, rd, rs int) { c.regMask[rd] = c.regMask[rs] }

// Binop implements vm.Tracer.
func (c *taintChecker) Binop(site uint32, op vm.Op, rd, ra, rb int, va, vb vm.Word) {
	c.regMask[rd] = c.cutFilter(bits.Binop(op, c.regMask[ra], c.regMask[rb], va, vb))
}

// Unop implements vm.Tracer.
func (c *taintChecker) Unop(site uint32, op vm.Op, rd, rs int, vs vm.Word) {
	c.regMask[rd] = c.cutFilter(bits.Unop(op, c.regMask[rs], vs))
}

// ExtB implements vm.Tracer.
func (c *taintChecker) ExtB(site uint32, rd, rs, idx int) {
	c.regMask[rd] = c.cutFilter(bits.Extract(c.regMask[rs], idx))
}

// InsB implements vm.Tracer.
func (c *taintChecker) InsB(site uint32, rd, rs, idx int) {
	c.regMask[rd] = c.cutFilter(bits.Insert(c.regMask[rd], bits.Extract(c.regMask[rs], 0), idx))
}

// Load implements vm.Tracer.
func (c *taintChecker) Load(site uint32, rd, raddr int, addr vm.Word, n int) {
	if m := c.regMask[raddr]; m != 0 {
		c.implicitTaint(site, int64(bits.Count(m)))
	}
	var combined bits.Mask
	for i := 0; i < n; i++ {
		combined |= bits.Mask(c.sh.get(addr+vm.Word(i))) << uint(8*i)
	}
	c.regMask[rd] = c.cutFilter(combined)
}

// Store implements vm.Tracer.
func (c *taintChecker) Store(site uint32, raddr int, addr vm.Word, rs int, n int) {
	if m := c.regMask[raddr]; m != 0 {
		c.implicitTaint(site, int64(bits.Count(m)))
	}
	m := c.regMask[rs]
	if c.atCut() && m != 0 {
		c.allow(int64(bits.Count(m & bits.ByteMask(n))))
		m = 0
	}
	for i := 0; i < n; i++ {
		c.sh.set(addr+vm.Word(i), uint8(bits.Extract(m, i)))
	}
}

// Branch implements vm.Tracer.
func (c *taintChecker) Branch(site uint32, rc int, taken bool) {
	if c.regMask[rc] != 0 {
		c.implicitTaint(site, 1)
	}
}

// JmpInd implements vm.Tracer.
func (c *taintChecker) JmpInd(site uint32, raddr int, target vm.Word) {
	if m := c.regMask[raddr]; m != 0 {
		c.implicitTaint(site, int64(bits.Count(m)))
	}
}

// Call implements vm.Tracer.
func (c *taintChecker) Call(site uint32, target int) {}

// Ret implements vm.Tracer.
func (c *taintChecker) Ret(site uint32) {
	sp := c.m.Regs[vm.SP]
	var capBits int64
	for i := 0; i < 4; i++ {
		capBits += int64(bits.Count(bits.Mask(c.sh.get(sp + vm.Word(i)))))
	}
	if capBits > 0 {
		c.violate(site, capBits, "return through tainted address")
	}
}

// Push implements vm.Tracer.
func (c *taintChecker) Push(site uint32, rs int, addr vm.Word) {
	var m bits.Mask
	if rs >= 0 {
		m = c.regMask[rs]
	}
	for i := 0; i < 4; i++ {
		c.sh.set(addr+vm.Word(i), uint8(bits.Extract(m, i)))
	}
}

// Pop implements vm.Tracer.
func (c *taintChecker) Pop(site uint32, rd int, addr vm.Word) {
	var combined bits.Mask
	for i := 0; i < 4; i++ {
		combined |= bits.Mask(c.sh.get(addr+vm.Word(i))) << uint(8*i)
	}
	c.regMask[rd] = combined
}

// ReadInput implements vm.Tracer. A cut at the read site means the policy
// allows revealing the bytes read there: they are charged and left
// untainted.
func (c *taintChecker) ReadInput(site uint32, addr vm.Word, data []byte, secret bool) {
	c.regMask[vm.R0] = 0 // the syscall writes the byte count into R0
	if secret && c.atCut() {
		c.allow(int64(8 * len(data)))
		secret = false
	}
	v := uint8(0)
	if secret {
		v = 0xFF
	}
	for i := range data {
		c.sh.set(addr+vm.Word(i), v)
	}
}

// WriteOutput implements vm.Tracer: tainted output bits are allowed at a
// cut site and violations anywhere else.
func (c *taintChecker) WriteOutput(site uint32, addr vm.Word, data []byte, reg int) {
	var n int64
	if reg >= 0 {
		n = int64(bits.Count(bits.Extract(c.regMask[reg], 0)))
	} else {
		for i := range data {
			n += int64(bits.Count(bits.Mask(c.sh.get(addr + vm.Word(i)))))
		}
	}
	if reg < 0 {
		c.regMask[vm.R0] = 0 // the syscall writes the byte count into R0
	}
	if n == 0 {
		return
	}
	if c.atCut() {
		c.allow(n)
		return
	}
	c.violate(site, n, "tainted data reached output outside the cut")
}

// MarkSecret implements vm.Tracer.
func (c *taintChecker) MarkSecret(site uint32, addr, length vm.Word) {
	for i := vm.Word(0); i < length; i++ {
		c.sh.set(addr+i, 0xFF)
	}
}

// Declassify implements vm.Tracer.
func (c *taintChecker) Declassify(site uint32, addr, length vm.Word) {
	for i := vm.Word(0); i < length; i++ {
		c.sh.set(addr+i, 0)
	}
}

// EnterRegion implements vm.Tracer: enclosure regions are still required in
// this mode (§6.2).
func (c *taintChecker) EnterRegion(site uint32, outputs []vm.Range) {
	c.regions = append(c.regions, &checkRegion{declared: outputs})
}

// LeaveRegion implements vm.Tracer: an active region's outputs become fully
// tainted; at a cut site they are instead charged as revealed and cleared.
func (c *taintChecker) LeaveRegion(site uint32) {
	if len(c.regions) == 0 {
		return
	}
	r := c.regions[len(c.regions)-1]
	c.regions = c.regions[:len(c.regions)-1]
	if !r.active {
		return
	}
	cut := c.atCut()
	for _, rng := range r.declared {
		if cut {
			c.allow(8 * int64(rng.Len))
		}
		v := uint8(0xFF)
		if cut {
			v = 0
		}
		for i := vm.Word(0); i < rng.Len; i++ {
			c.sh.set(rng.Addr+i, v)
		}
	}
	if !cut {
		// Propagate the region's influence to an enclosing region, if any:
		// its outputs are tainted, and a branch on them later re-activates.
		if n := len(c.regions); n > 0 {
			c.regions[n-1].active = true
		}
	}
}

// FlowNote implements vm.Tracer (no-op in checking mode).
func (c *taintChecker) FlowNote(site uint32) {}

// Exit implements vm.Tracer.
func (c *taintChecker) Exit(site uint32, codeReg int) {
	if m := c.regMask[codeReg]; m != 0 {
		n := int64(bits.Count(m))
		if c.atCut() {
			c.allow(n)
		} else {
			c.violate(site, n, "tainted exit code")
		}
	}
}

// shadowMasks is a paged mask-only shadow memory (no value identities —
// checking needs no graph), on the page table guest memory uses. The
// table grows to cover each page written, which may lie past the end of
// guest memory when a region declares outputs there.
type shadowMasks struct {
	pages vm.PageTable[[vm.PageSize]uint8]
}

func (s *shadowMasks) get(a vm.Word) uint8 {
	if p := s.pages.At(a); p != nil {
		return p[a%vm.PageSize]
	}
	return 0
}

func (s *shadowMasks) set(a vm.Word, v uint8) {
	p := s.pages.At(a)
	if p == nil {
		if v == 0 {
			return
		}
		p = new([vm.PageSize]uint8)
		s.pages.Put(a, p)
	}
	p[a%vm.PageSize] = v
}
