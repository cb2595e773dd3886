// Package codegen lowers type-checked MiniC programs to vm instructions.
//
// The generator uses a simple stack-machine discipline over the VM's
// registers: every expression leaves its value in R0, spilling intermediate
// values to the runtime stack with push/pop. R1 and R2 are scratch. The
// calling convention is cdecl-like: arguments pushed right to left, return
// value in R0, caller pops arguments; BP frames locals.
//
// The paper's ENTER_ENCLOSE/LEAVE_ENCLOSE annotations (§2.2) compile to
// SysEnterRegion/SysLeaveRegion syscalls around the region body, with the
// declared output ranges materialized into a frame-allocated descriptor.
// Dense switch statements compile to data-segment jump tables reached
// through an indirect jump, exercising the analysis's secret-pointer
// accounting exactly as compiled C would.
package codegen

import (
	"fmt"

	"flowcheck/internal/lang/ast"
	"flowcheck/internal/lang/token"
	"flowcheck/internal/vm"
)

// Error is a code-generation error with position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

type fixup struct {
	pc   int    // instruction whose Imm needs the target
	name string // function name (for call fixups), or "" for label fixups
}

type gen struct {
	f    *ast.File
	code []vm.Instr

	data    []byte
	strings map[string]vm.Word // interned string literals
	globals map[string]vm.Word

	sites   []vm.SiteInfo
	siteIdx map[vm.SiteInfo]uint32
	curSite uint32
	curFn   string

	funcEntry map[string]int
	funcs     []vm.FuncInfo
	callFix   []fixup

	// Per-function state.
	frameSize  int32 // bytes of locals (positive)
	breakT     []int // break target label stack
	contT      []int // continue target label stack
	epilogue   int   // label of the current function's epilogue
	labelTargs []int // label id -> pc (-1 while unresolved)
	labelFix   [][]int
	// Jump tables awaiting backpatch: data offset and case label ids.
	tableFix []tablePatch
}

type tablePatch struct {
	dataOff vm.Word
	labels  []int
}

// Compile lowers a checked file to an executable program. The file must
// have passed sema.Check.
func Compile(f *ast.File) (*vm.Program, error) {
	g := &gen{
		f:         f,
		strings:   map[string]vm.Word{},
		globals:   map[string]vm.Word{},
		siteIdx:   map[vm.SiteInfo]uint32{},
		funcEntry: map[string]int{},
	}
	g.sites = append(g.sites, vm.SiteInfo{}) // site 0: unknown
	if err := g.compile(); err != nil {
		return nil, err
	}
	p := &vm.Program{
		Code:    g.code,
		Data:    g.data,
		Entry:   g.funcEntry["__start"],
		Sites:   g.sites,
		Funcs:   g.funcs,
		Globals: g.globals,
	}
	return p, nil
}

func (g *gen) compile() error {
	// Lay out globals in the data segment.
	for _, d := range g.f.Globals {
		g.alignData(4)
		addr := vm.DataBase + vm.Word(len(g.data))
		g.data = append(g.data, make([]byte, d.T.Size())...)
		d.Sym.Addr = int32(addr)
		g.globals[d.Name] = addr
	}

	// Synthesized startup: run global initializers, call main, halt.
	g.funcEntry["__start"] = len(g.code)
	g.curFn = "__start"
	for _, d := range g.f.Globals {
		if d.Init == nil {
			continue
		}
		g.setSite(d.Pos())
		if err := g.expr(d.Init); err != nil {
			return err
		}
		g.emit(vm.Instr{Op: vm.OpConst, A: vm.R1, Imm: d.Sym.Addr})
		g.emit(vm.Instr{Op: vm.OpStore, A: vm.R1, B: vm.R0, W: width(d.T)})
	}
	mainFix := len(g.code)
	g.emit(vm.Instr{Op: vm.OpCall, Imm: -1})
	g.emit(vm.Instr{Op: vm.OpHalt})
	g.funcs = append(g.funcs, vm.FuncInfo{Name: "__start", Entry: g.funcEntry["__start"], End: len(g.code)})

	// Compile functions.
	for _, fn := range g.f.Funcs {
		if err := g.fn(fn); err != nil {
			return err
		}
	}
	g.code[mainFix].Imm = int32(g.funcEntry["main"])

	// Resolve cross-function call fixups.
	for _, fx := range g.callFix {
		entry, ok := g.funcEntry[fx.name]
		if !ok {
			return &Error{Msg: "call to undefined function " + fx.name}
		}
		g.code[fx.pc].Imm = int32(entry)
	}
	return nil
}

// ---------------------------------------------------------------- helpers ---

func width(t *ast.Type) uint8 {
	if t.Kind == ast.Char {
		return 1
	}
	return 4
}

func (g *gen) alignData(n int) {
	for len(g.data)%n != 0 {
		g.data = append(g.data, 0)
	}
}

func (g *gen) internString(s string) vm.Word {
	if addr, ok := g.strings[s]; ok {
		return addr
	}
	addr := vm.DataBase + vm.Word(len(g.data))
	g.data = append(g.data, s...)
	g.data = append(g.data, 0)
	g.strings[s] = addr
	return addr
}

func (g *gen) setSite(p token.Pos) {
	// Consecutive statements and expressions mostly share a line: compare
	// with the current site before hashing its strings. Site 0, the
	// unknown site, is not in siteIdx, so it never matches here.
	if cur := &g.sites[g.curSite]; g.curSite != 0 && cur.Line == p.Line && cur.File == p.File && cur.Fn == g.curFn {
		return
	}
	si := vm.SiteInfo{File: p.File, Line: p.Line, Fn: g.curFn}
	if idx, ok := g.siteIdx[si]; ok {
		g.curSite = idx
		return
	}
	idx := uint32(len(g.sites))
	g.sites = append(g.sites, si)
	g.siteIdx[si] = idx
	g.curSite = idx
}

func (g *gen) emit(in vm.Instr) int {
	in.Site = g.curSite
	g.code = append(g.code, in)
	return len(g.code) - 1
}

// Labels: newLabel allocates, mark binds to the current pc, jumps record
// fixups resolved in endFunc.
func (g *gen) newLabel() int {
	g.labelTargs = append(g.labelTargs, -1)
	g.labelFix = append(g.labelFix, nil)
	return len(g.labelTargs) - 1
}

func (g *gen) mark(lbl int) { g.labelTargs[lbl] = len(g.code) }

func (g *gen) jump(op vm.Op, cond uint8, lbl int) {
	pc := g.emit(vm.Instr{Op: op, A: cond, Imm: -1})
	g.labelFix[lbl] = append(g.labelFix[lbl], pc)
}

func (g *gen) resolveLabels() {
	for lbl, fixes := range g.labelFix {
		t := g.labelTargs[lbl]
		for _, pc := range fixes {
			g.code[pc].Imm = int32(t)
		}
	}
}

// ---------------------------------------------------------------- function ---

func (g *gen) fn(fn *ast.FuncDecl) error {
	g.curFn = fn.Name
	g.funcEntry[fn.Name] = len(g.code)
	g.setSite(fn.Pos())

	// Assign parameter offsets: first parameter at BP+8.
	off := int32(8)
	for _, p := range fn.Params {
		p.Sym.Addr = off
		off += 4 // every parameter occupies one stack word
	}

	g.frameSize = 0
	g.epilogue = g.newLabel()
	g.assignLocals(fn.Body)

	// Prologue.
	g.emit(vm.Instr{Op: vm.OpPush, B: vm.BP})
	g.emit(vm.Instr{Op: vm.OpMov, A: vm.BP, B: vm.SP})
	if g.frameSize > 0 {
		g.emit(vm.Instr{Op: vm.OpConst, A: vm.R1, Imm: g.frameSize})
		g.emit(vm.Instr{Op: vm.OpSub, A: vm.SP, B: vm.SP, C: vm.R1})
	}

	if err := g.stmt(fn.Body); err != nil {
		return err
	}

	// Fall-off-the-end return (value 0 for non-void mains and friends).
	g.setSite(fn.Pos())
	g.emit(vm.Instr{Op: vm.OpConst, A: vm.R0, Imm: 0})
	g.mark(g.epilogue)
	g.emit(vm.Instr{Op: vm.OpMov, A: vm.SP, B: vm.BP})
	g.emit(vm.Instr{Op: vm.OpPop, A: vm.BP})
	g.emit(vm.Instr{Op: vm.OpRet})

	g.resolveLabels()
	// Fill this function's jump tables now that case label PCs are known.
	for _, tp := range g.tableFix {
		for i, lbl := range tp.labels {
			pc := g.labelTargs[lbl]
			off := tp.dataOff - vm.DataBase + vm.Word(4*i)
			g.data[off] = byte(pc)
			g.data[off+1] = byte(pc >> 8)
			g.data[off+2] = byte(pc >> 16)
			g.data[off+3] = byte(pc >> 24)
		}
	}
	g.tableFix = g.tableFix[:0]
	g.labelTargs = g.labelTargs[:0]
	g.labelFix = g.labelFix[:0]
	g.funcs = append(g.funcs, vm.FuncInfo{Name: fn.Name, Entry: g.funcEntry[fn.Name], End: len(g.code)})
	return nil
}

// assignLocals walks the body assigning BP-relative offsets to every local
// declaration and enclosure descriptor. All block locals live for the whole
// function (no slot reuse), which keeps addresses stable for the region
// machinery.
func (g *gen) assignLocals(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.Block:
		for _, st := range s.Stmts {
			g.assignLocals(st)
		}
	case *ast.DeclStmt:
		for _, d := range s.Decls {
			size := int32((d.T.Size() + 3) &^ 3)
			g.frameSize += size
			d.Sym.Addr = -g.frameSize
		}
	case *ast.If:
		g.assignLocals(s.Then)
		if s.Else != nil {
			g.assignLocals(s.Else)
		}
	case *ast.While:
		g.assignLocals(s.Body)
	case *ast.DoWhile:
		g.assignLocals(s.Body)
	case *ast.For:
		if s.Init != nil {
			g.assignLocals(s.Init)
		}
		g.assignLocals(s.Body)
	case *ast.Switch:
		for _, c := range s.Cases {
			for _, st := range c.Stmts {
				g.assignLocals(st)
			}
		}
	case *ast.Enclose:
		// Reserve the descriptor: count word plus (addr, len) per item.
		size := int32(4 * (1 + 2*len(s.Items)))
		g.frameSize += size
		s.DescOff = -g.frameSize
		g.assignLocals(s.Body)
	}
}

// ---------------------------------------------------------------- stmts ---

func (g *gen) stmt(s ast.Stmt) error {
	switch s := s.(type) {
	case *ast.Block:
		for _, st := range s.Stmts {
			if err := g.stmt(st); err != nil {
				return err
			}
		}
		return nil

	case *ast.DeclStmt:
		for _, d := range s.Decls {
			if d.Init != nil {
				g.setSite(d.Pos())
				if err := g.expr(d.Init); err != nil {
					return err
				}
				g.emit(vm.Instr{Op: vm.OpMov, A: vm.R2, B: vm.BP})
				g.emit(vm.Instr{Op: vm.OpStore, A: vm.R2, B: vm.R0, W: width(d.T), Imm: d.Sym.Addr})
			}
		}
		return nil

	case *ast.ExprStmt:
		g.setSite(s.Pos())
		return g.expr(s.X)

	case *ast.Empty:
		return nil

	case *ast.If:
		g.setSite(s.Pos())
		if err := g.expr(s.Cond); err != nil {
			return err
		}
		elseL, endL := g.newLabel(), g.newLabel()
		g.jump(vm.OpJz, vm.R0, elseL)
		if err := g.stmt(s.Then); err != nil {
			return err
		}
		g.jump(vm.OpJmp, 0, endL)
		g.mark(elseL)
		if s.Else != nil {
			if err := g.stmt(s.Else); err != nil {
				return err
			}
		}
		g.mark(endL)
		return nil

	case *ast.While:
		top, end := g.newLabel(), g.newLabel()
		g.mark(top)
		g.setSite(s.Pos())
		if err := g.expr(s.Cond); err != nil {
			return err
		}
		g.jump(vm.OpJz, vm.R0, end)
		g.breakT = append(g.breakT, end)
		g.contT = append(g.contT, top)
		err := g.stmt(s.Body)
		g.breakT = g.breakT[:len(g.breakT)-1]
		g.contT = g.contT[:len(g.contT)-1]
		if err != nil {
			return err
		}
		g.jump(vm.OpJmp, 0, top)
		g.mark(end)
		return nil

	case *ast.DoWhile:
		top, cond, end := g.newLabel(), g.newLabel(), g.newLabel()
		g.mark(top)
		g.breakT = append(g.breakT, end)
		g.contT = append(g.contT, cond)
		err := g.stmt(s.Body)
		g.breakT = g.breakT[:len(g.breakT)-1]
		g.contT = g.contT[:len(g.contT)-1]
		if err != nil {
			return err
		}
		g.mark(cond)
		g.setSite(s.Pos())
		if err := g.expr(s.Cond); err != nil {
			return err
		}
		g.jump(vm.OpJnz, vm.R0, top)
		g.mark(end)
		return nil

	case *ast.For:
		if s.Init != nil {
			if err := g.stmt(s.Init); err != nil {
				return err
			}
		}
		top, post, end := g.newLabel(), g.newLabel(), g.newLabel()
		g.mark(top)
		if s.Cond != nil {
			g.setSite(s.Cond.Pos())
			if err := g.expr(s.Cond); err != nil {
				return err
			}
			g.jump(vm.OpJz, vm.R0, end)
		}
		g.breakT = append(g.breakT, end)
		g.contT = append(g.contT, post)
		err := g.stmt(s.Body)
		g.breakT = g.breakT[:len(g.breakT)-1]
		g.contT = g.contT[:len(g.contT)-1]
		if err != nil {
			return err
		}
		g.mark(post)
		if s.Post != nil {
			g.setSite(s.Post.Pos())
			if err := g.expr(s.Post); err != nil {
				return err
			}
		}
		g.jump(vm.OpJmp, 0, top)
		g.mark(end)
		return nil

	case *ast.Switch:
		return g.switchStmt(s)

	case *ast.Return:
		g.setSite(s.Pos())
		if s.X != nil {
			if err := g.expr(s.X); err != nil {
				return err
			}
		}
		g.jump(vm.OpJmp, 0, g.epilogue)
		return nil

	case *ast.Break:
		g.setSite(s.Pos())
		g.jump(vm.OpJmp, 0, g.breakT[len(g.breakT)-1])
		return nil

	case *ast.Continue:
		g.setSite(s.Pos())
		g.jump(vm.OpJmp, 0, g.contT[len(g.contT)-1])
		return nil

	case *ast.Enclose:
		return g.enclose(s)
	}
	return &Error{Pos: s.Pos(), Msg: fmt.Sprintf("unhandled statement %T", s)}
}

func (g *gen) enclose(s *ast.Enclose) error {
	g.setSite(s.Pos())
	// Build the descriptor in the frame: [count, addr1, len1, ...].
	g.emit(vm.Instr{Op: vm.OpConst, A: vm.R1, Imm: int32(len(s.Items))})
	g.storeBP(s.DescOff, vm.R1)
	for i, it := range s.Items {
		slot := s.DescOff + int32(4+8*i)
		if it.Len == nil {
			t := it.Ptr.Type()
			if err := g.addr(it.Ptr); err != nil {
				return err
			}
			g.storeBP(slot, vm.R0)
			size := t.Size()
			g.emit(vm.Instr{Op: vm.OpConst, A: vm.R1, Imm: int32(size)})
			g.storeBP(slot+4, vm.R1)
		} else {
			if err := g.expr(it.Ptr); err != nil {
				return err
			}
			g.storeBP(slot, vm.R0)
			if err := g.expr(it.Len); err != nil {
				return err
			}
			g.storeBP(slot+4, vm.R0)
		}
	}
	// R1 = BP + descOff; SysEnterRegion.
	g.emit(vm.Instr{Op: vm.OpConst, A: vm.R1, Imm: s.DescOff})
	g.emit(vm.Instr{Op: vm.OpAdd, A: vm.R1, B: vm.BP, C: vm.R1})
	g.emit(vm.Instr{Op: vm.OpSys, Imm: vm.SysEnterRegion})
	if err := g.stmt(s.Body); err != nil {
		return err
	}
	g.setSite(s.Pos())
	g.emit(vm.Instr{Op: vm.OpSys, Imm: vm.SysLeaveRegion})
	return nil
}

// storeBP stores register r to [BP+off].
func (g *gen) storeBP(off int32, r uint8) {
	g.emit(vm.Instr{Op: vm.OpMov, A: vm.R2, B: vm.BP})
	g.emit(vm.Instr{Op: vm.OpStore, A: vm.R2, B: r, W: 4, Imm: off})
}

func (g *gen) switchStmt(s *ast.Switch) error {
	g.setSite(s.Pos())
	if err := g.expr(s.X); err != nil {
		return err
	}
	end := g.newLabel()

	// Gather labels.
	type arm struct {
		val int64
		lbl int
	}
	var arms []arm
	caseLbl := make([]int, len(s.Cases))
	defaultLbl := end
	for i, c := range s.Cases {
		caseLbl[i] = g.newLabel()
		if c.IsDefault {
			defaultLbl = caseLbl[i]
		}
		for _, v := range c.Vals {
			arms = append(arms, arm{v, caseLbl[i]})
		}
	}

	dense := false
	var lo, hi int64
	if len(arms) >= 3 {
		lo, hi = arms[0].val, arms[0].val
		for _, a := range arms {
			if a.val < lo {
				lo = a.val
			}
			if a.val > hi {
				hi = a.val
			}
		}
		span := hi - lo + 1
		if span <= 3*int64(len(arms))+8 && span <= 1024 {
			dense = true
		}
	}

	if dense {
		// Jump table in the data segment, reached by an indirect jump:
		// the canonical tainted-pointer implicit flow (§2.2).
		span := int(hi - lo + 1)
		g.alignData(4)
		tbl := vm.DataBase + vm.Word(len(g.data))
		g.data = append(g.data, make([]byte, 4*span)...)
		labels := make([]int, span)
		for i := range labels {
			labels[i] = defaultLbl
		}
		for _, a := range arms {
			labels[a.val-lo] = a.lbl
		}
		g.tableFix = append(g.tableFix, tablePatch{dataOff: tbl, labels: labels})

		// R0 = switch value. Bounds-check, then jump through the table.
		g.emit(vm.Instr{Op: vm.OpConst, A: vm.R1, Imm: int32(lo)})
		g.emit(vm.Instr{Op: vm.OpSub, A: vm.R0, B: vm.R0, C: vm.R1}) // idx = x - lo
		g.emit(vm.Instr{Op: vm.OpConst, A: vm.R1, Imm: int32(span)})
		g.emit(vm.Instr{Op: vm.OpCmpLTU, A: vm.R1, B: vm.R0, C: vm.R1}) // idx < span (unsigned)
		g.jump(vm.OpJz, vm.R1, defaultLbl)
		g.emit(vm.Instr{Op: vm.OpConst, A: vm.R1, Imm: 4})
		g.emit(vm.Instr{Op: vm.OpMul, A: vm.R0, B: vm.R0, C: vm.R1})
		g.emit(vm.Instr{Op: vm.OpConst, A: vm.R1, Imm: int32(tbl)})
		g.emit(vm.Instr{Op: vm.OpAdd, A: vm.R0, B: vm.R0, C: vm.R1})
		g.emit(vm.Instr{Op: vm.OpLoad, A: vm.R0, B: vm.R0, W: 4})
		g.emit(vm.Instr{Op: vm.OpJmpInd, A: vm.R0})
	} else {
		// Comparison chain.
		for _, a := range arms {
			g.emit(vm.Instr{Op: vm.OpConst, A: vm.R1, Imm: int32(a.val)})
			g.emit(vm.Instr{Op: vm.OpCmpEQ, A: vm.R1, B: vm.R0, C: vm.R1})
			g.jump(vm.OpJnz, vm.R1, a.lbl)
		}
		g.jump(vm.OpJmp, 0, defaultLbl)
	}

	g.breakT = append(g.breakT, end)
	for i, c := range s.Cases {
		g.mark(caseLbl[i])
		for _, st := range c.Stmts {
			if err := g.stmt(st); err != nil {
				return err
			}
		}
	}
	g.breakT = g.breakT[:len(g.breakT)-1]
	g.mark(end)
	return nil
}
