package check

import (
	"bytes"
	"fmt"

	"flowcheck/internal/vm"
)

// LockstepResult reports an output-comparison check (§6.3).
type LockstepResult struct {
	// OK is true when both copies produced identical outputs: the values
	// transferred at the cut were the only secret information needed.
	OK bool
	// Divergence describes the first difference found (empty when OK).
	Divergence string
	// BitsTransferred counts the bits copied across at cut sites — the
	// information actually revealed, charged against the policy budget.
	BitsTransferred int64
	Output          []byte
	Steps           uint64
}

// Event kinds for synchronization between the two copies.
const (
	evCut = iota
	evOutput
	evHalt
	evTrap
)

type event struct {
	kind int
	site uint32 // cut site (evCut)
	out  []byte // output bytes (evOutput)
	err  error  // trap (evTrap)
}

// RunLockstep runs two copies of prog: the primary on the real secret
// input, the shadow on an innocuous input of the same length. The copies
// run independently (control flow inside enclosed computations may differ)
// and synchronize only at cut sites, where the primary's values are copied
// into the shadow, and at outputs, which must match byte for byte — the
// mostly-uninstrumented checking mode of §6.3. A policy violation shows up
// as an output (or synchronization) divergence.
func RunLockstep(prog *vm.Program, secret, dummy, public []byte, cutSites []uint32) (*LockstepResult, error) {
	if len(dummy) != len(secret) {
		return nil, fmt.Errorf("check: dummy input length %d != secret length %d", len(dummy), len(secret))
	}
	cut := map[uint32]bool{}
	for _, s := range cutSites {
		cut[s] = true
	}

	m1 := vm.NewMachine(prog)
	m1.SecretIn = secret
	m1.PublicIn = public
	m2 := vm.NewMachine(prog)
	m2.SecretIn = dummy
	m2.PublicIn = public

	ls := &lockstep{prog: prog, cut: cut, res: &LockstepResult{}}
	// Track the primary's enclosure regions so a cut at a leave site knows
	// which ranges to copy. R1 still holds the descriptor address when the
	// hook fires, and syscalls do not clobber it.
	m1.AfterInstr = func(m *vm.Machine, in *vm.Instr) {
		if in.Op != vm.OpSys {
			return
		}
		switch int(in.Imm) {
		case vm.SysEnterRegion:
			ls.regionStack = append(ls.regionStack, readRegionRanges(m))
		case vm.SysLeaveRegion:
			ls.lastLeave = ls.popRegion()
		}
	}

	fail := func(format string, args ...interface{}) (*LockstepResult, error) {
		ls.res.OK = false
		ls.res.Divergence = fmt.Sprintf(format, args...)
		ls.res.Output = m1.Output
		ls.res.Steps = m1.Steps + m2.Steps
		return ls.res, nil
	}

	for {
		e1 := ls.nextEvent(m1)
		if e1.kind == evTrap {
			return nil, fmt.Errorf("primary trapped: %w", e1.err)
		}
		e2 := ls.nextEvent(m2)
		if e2.kind == evTrap {
			return fail("shadow trapped: %v", e2.err)
		}
		if e1.kind != e2.kind {
			return fail("copies desynchronized: primary %s, shadow %s", evName(e1), evName(e2))
		}
		switch e1.kind {
		case evHalt:
			if m1.ExitCode != m2.ExitCode {
				return fail("exit codes diverged: %d vs %d", m1.ExitCode, m2.ExitCode)
			}
			if !bytes.Equal(m1.Output, m2.Output) {
				return fail("final outputs differ: %q vs %q", tail(m1.Output), tail(m2.Output))
			}
			ls.res.OK = true
			ls.res.Output = m1.Output
			ls.res.Steps = m1.Steps + m2.Steps
			return ls.res, nil

		case evOutput:
			if !bytes.Equal(e1.out, e2.out) {
				return fail("outputs diverged: primary wrote %q, shadow wrote %q", e1.out, e2.out)
			}

		case evCut:
			if e1.site != e2.site {
				return fail("cut sites diverged: primary at %s, shadow at %s",
					prog.SiteString(prog.Code[e1.site].Site), prog.SiteString(prog.Code[e2.site].Site))
			}
			if msg := ls.transferAndStep(m1, m2, int(e1.site)); msg != "" {
				return fail("%s", msg)
			}
		}
	}
}

type lockstep struct {
	prog *vm.Program
	cut  map[uint32]bool
	res  *LockstepResult
	// regionStack records the primary's enclosure output ranges so a cut
	// at a leave site knows what to copy; lastLeave holds the ranges of
	// the most recently left region.
	regionStack [][]vm.Range
	lastLeave   []vm.Range
}

func evName(e event) string {
	switch e.kind {
	case evCut:
		return fmt.Sprintf("cut@%d", e.site)
	case evOutput:
		return fmt.Sprintf("output %q", e.out)
	case evHalt:
		return "halt"
	}
	return "trap"
}

// nextEvent advances m to its next synchronization point: stopping *before*
// a cut-site instruction, or *after* producing output, or at halt/trap.
func (ls *lockstep) nextEvent(m *vm.Machine) event {
	for !m.Halted {
		pc := m.PC
		if ls.cut[uint32(pc)] {
			return event{kind: evCut, site: uint32(pc)}
		}
		outLen := len(m.Output)
		if err := m.Step(); err != nil {
			return event{kind: evTrap, err: err}
		}
		if len(m.Output) > outLen {
			return event{kind: evOutput, out: m.Output[outLen:]}
		}
	}
	return event{kind: evHalt}
}

// transferAndStep executes the cut-site instruction on both machines,
// copying the primary's value across: control-steering inputs (branch
// conditions, stored values, output buffers) before the step, computed
// results after it. It returns a divergence message, or "".
func (ls *lockstep) transferAndStep(m1, m2 *vm.Machine, pc int) string {
	in := &ls.prog.Code[pc]

	// Pre-step transfers.
	switch in.Op {
	case vm.OpJz, vm.OpJnz, vm.OpJmpInd, vm.OpCallInd:
		ls.res.BitsTransferred += 32
		m2.Regs[in.A] = m1.Regs[in.A]
	case vm.OpStore, vm.OpPush:
		ls.res.BitsTransferred += 32
		m2.Regs[in.B] = m1.Regs[in.B]
	case vm.OpSys:
		switch int(in.Imm) {
		case vm.SysPutc, vm.SysExit:
			ls.res.BitsTransferred += 32
			m2.Regs[vm.R0] = m1.Regs[vm.R0]
		case vm.SysWrite:
			n := int(m1.Regs[vm.R2])
			if src := m1.Bytes(m1.Regs[vm.R1], n); src != nil && m2.SetBytes(m2.Regs[vm.R1], src) {
				ls.res.BitsTransferred += int64(8 * n)
			}
		}
	}

	out1, out2 := len(m1.Output), len(m2.Output)
	if err := m1.Step(); err != nil {
		return fmt.Sprintf("primary trapped at cut: %v", err)
	}
	if err := m2.Step(); err != nil {
		return fmt.Sprintf("shadow trapped at cut: %v", err)
	}

	// Post-step transfers.
	switch in.Op {
	case vm.OpConst, vm.OpMov, vm.OpAdd, vm.OpSub, vm.OpMul,
		vm.OpDivS, vm.OpDivU, vm.OpModS, vm.OpModU,
		vm.OpAnd, vm.OpOr, vm.OpXor, vm.OpShl, vm.OpShrU, vm.OpShrS,
		vm.OpNot, vm.OpNeg, vm.OpExtB, vm.OpInsB,
		vm.OpCmpEQ, vm.OpCmpNE, vm.OpCmpLTS, vm.OpCmpLES, vm.OpCmpLTU, vm.OpCmpLEU,
		vm.OpLoad, vm.OpPop:
		ls.res.BitsTransferred += 32
		m2.Regs[in.A] = m1.Regs[in.A]
	case vm.OpSys:
		switch int(in.Imm) {
		case vm.SysRead:
			// A cut at the input read: the primary's bytes are the
			// revealed value.
			n := int(m1.Regs[vm.R0])
			m2.Regs[vm.R0] = m1.Regs[vm.R0]
			if src := m1.Bytes(m1.Regs[vm.R1], n); src != nil && m2.SetBytes(m2.Regs[vm.R1], src) {
				ls.res.BitsTransferred += int64(8 * n)
			}
		case vm.SysLeaveRegion:
			// AfterInstr popped the region when m1 stepped.
			for _, r := range ls.lastLeave {
				if src := m1.Bytes(r.Addr, int(r.Len)); src != nil && m2.SetBytes(r.Addr, src) {
					ls.res.BitsTransferred += int64(8 * r.Len)
				}
			}
		}
	}

	// Output produced by the cut instruction itself must still match.
	o1, o2 := m1.Output[out1:], m2.Output[out2:]
	if !bytes.Equal(o1, o2) {
		return fmt.Sprintf("outputs diverged at cut: %q vs %q", o1, o2)
	}
	return ""
}

func (ls *lockstep) popRegion() []vm.Range {
	if n := len(ls.regionStack); n > 0 {
		r := ls.regionStack[n-1]
		ls.regionStack = ls.regionStack[:n-1]
		return r
	}
	return nil
}

func tail(b []byte) []byte {
	if len(b) > 32 {
		return b[len(b)-32:]
	}
	return b
}

// readRegionRanges decodes the enclosure descriptor the machine is about to
// pass to SysEnterRegion.
func readRegionRanges(m *vm.Machine) []vm.Range {
	desc := m.Regs[vm.R1]
	cnt, ok := m.LoadWord(desc)
	if !ok || cnt > 1024 {
		return nil
	}
	out := make([]vm.Range, 0, cnt)
	for i := vm.Word(0); i < cnt; i++ {
		a, ok1 := m.LoadWord(desc + 4 + 8*i)
		l, ok2 := m.LoadWord(desc + 8 + 8*i)
		if !ok1 || !ok2 {
			return nil
		}
		out = append(out, vm.Range{Addr: a, Len: l})
	}
	return out
}
