// Package infer reimplements the pilot static analysis of paper §8.6: a
// very simple, intraprocedural, syntax-directed, flow- and
// context-insensitive side-effect analysis that computes, for a code region
// containing implicit flows, the set of locations the region might write —
// the outputs an enclosure annotation must declare.
//
// As in the paper, the analysis is evaluated against the hand-written
// annotations in the case-study programs: each declared output is
// classified as found, missed because the write uses a non-constant array
// index (the "expansion" column of Figure 6), or missed because the write
// happens in a callee ("interprocedural"); outputs whose extent cannot be
// known statically are additionally counted in the "need length" column.
package infer

import (
	"fmt"
	"strings"

	"flowcheck/internal/lang/ast"
	"flowcheck/internal/lang/token"
)

// Category classifies how the pilot analysis fared on one hand annotation.
type Category int

// Classification outcomes, mirroring Figure 6's columns.
const (
	Found Category = iota
	MissedExpansion
	MissedInterprocedural
)

func (c Category) String() string {
	switch c {
	case Found:
		return "found"
	case MissedExpansion:
		return "missed/expansion"
	case MissedInterprocedural:
		return "missed/interprocedural"
	}
	return "?"
}

// ItemReport is the verdict for one declared output of one region.
type ItemReport struct {
	Region token.Pos
	Func   string
	Expr   string
	Cat    Category
	// NeedsLength marks outputs whose byte extent is a runtime value
	// (Figure 6's "need length" column).
	NeedsLength bool
}

// Report aggregates a file's classification (one Figure 6 row).
type Report struct {
	Program    string
	Items      []ItemReport
	HandAnnots int
	NeedLength int
	MissExpand int
	MissInterp int
	FoundCount int
}

// FoundFraction returns the fraction of hand annotations the pilot found.
func (r *Report) FoundFraction() float64 {
	if r.HandAnnots == 0 {
		return 1
	}
	return float64(r.FoundCount) / float64(r.HandAnnots)
}

func (r *Report) String() string {
	return fmt.Sprintf("%s: hand=%d needLen=%d missExp=%d missInterproc=%d found=%d (%.0f%%)",
		r.Program, r.HandAnnots, r.NeedLength, r.MissExpand, r.MissInterp, r.FoundCount,
		100*r.FoundFraction())
}

// writeSet is what the single syntax-directed pass collects from a region
// body: names assigned directly, array names with constant or non-constant
// indices, pointer targets stored through, and whether calls occur.
type writeSet struct {
	simple      map[string]bool // x = ...
	arrConst    map[string]bool // x[3] = ...
	arrDyn      map[string]bool // x[i] = ..., i not constant
	ptrStore    map[string]bool // *p = ... or p[i] = ... where p is a pointer
	locals      map[string]bool // declared inside the region: not outputs
	hasCall     bool
	addrTakenIn map[string]bool // &x passed to a call inside the region
}

func newWriteSet() *writeSet {
	return &writeSet{
		simple: map[string]bool{}, arrConst: map[string]bool{}, arrDyn: map[string]bool{},
		ptrStore: map[string]bool{}, locals: map[string]bool{}, addrTakenIn: map[string]bool{},
	}
}

// AnalyzeFile runs the pilot analysis over every __enclose annotation in f
// and classifies each declared output. The file must be parsed; it does not
// need to be type-checked (the analysis is purely syntactic, like the CIL
// pass in the paper).
func AnalyzeFile(name string, f *ast.File) *Report {
	rep := &Report{Program: name}
	for _, fn := range f.Funcs {
		walkStmts(fn.Body, func(s ast.Stmt) {
			enc, ok := s.(*ast.Enclose)
			if !ok {
				return
			}
			ws := newWriteSet()
			collectWrites(enc.Body, ws)
			for _, item := range enc.Items {
				ir := classify(item, ws)
				ir.Region = enc.Pos()
				ir.Func = fn.Name
				rep.Items = append(rep.Items, ir)
				rep.HandAnnots++
				switch ir.Cat {
				case Found:
					rep.FoundCount++
				case MissedExpansion:
					rep.MissExpand++
				case MissedInterprocedural:
					rep.MissInterp++
				}
				if ir.NeedsLength {
					rep.NeedLength++
				}
			}
		})
	}
	return rep
}

// classify decides how the pilot analysis fares on one declared output.
func classify(item ast.EncItem, ws *writeSet) ItemReport {
	expr := exprString(item.Ptr)
	ir := ItemReport{Expr: expr}

	// A range output `p : len` needs a statically-known extent.
	if item.Len != nil {
		if _, ok := constEval(item.Len); !ok {
			ir.NeedsLength = true
		}
	}

	name, isIdent := identName(item.Ptr)
	if !isIdent {
		// Complex output expressions (e.g. field-like or deref chains) are
		// beyond the syntax-directed pass.
		ir.Cat = MissedInterprocedural
		return ir
	}

	switch {
	case ws.simple[name]:
		ir.Cat = Found
	case ws.arrDyn[name]:
		// The pass sees only "name[i]": it cannot name the whole array at
		// region entry — the paper's expansion category.
		ir.Cat = MissedExpansion
	case ws.arrConst[name]:
		ir.Cat = Found
	case ws.ptrStore[name]:
		// Writes through the declared pointer: found, but the extent is
		// dynamic.
		ir.Cat = Found
		if item.Len != nil {
			if _, ok := constEval(item.Len); !ok {
				ir.NeedsLength = true
			}
		}
	case ws.hasCall:
		ir.Cat = MissedInterprocedural
	default:
		ir.Cat = MissedInterprocedural
	}
	return ir
}

// collectWrites performs the single syntax-directed pass over a region
// body, disregarding control flow except as implied by block structure.
func collectWrites(s ast.Stmt, ws *writeSet) {
	switch s := s.(type) {
	case *ast.Block:
		for _, st := range s.Stmts {
			collectWrites(st, ws)
		}
	case *ast.DeclStmt:
		for _, d := range s.Decls {
			ws.locals[d.Name] = true
			if d.Init != nil {
				collectWritesExpr(d.Init, ws)
			}
		}
	case *ast.ExprStmt:
		collectWritesExpr(s.X, ws)
	case *ast.If:
		collectWritesExpr(s.Cond, ws)
		collectWrites(s.Then, ws)
		if s.Else != nil {
			collectWrites(s.Else, ws)
		}
	case *ast.While:
		collectWritesExpr(s.Cond, ws)
		collectWrites(s.Body, ws)
	case *ast.DoWhile:
		collectWrites(s.Body, ws)
		collectWritesExpr(s.Cond, ws)
	case *ast.For:
		if s.Init != nil {
			collectWrites(s.Init, ws)
		}
		if s.Cond != nil {
			collectWritesExpr(s.Cond, ws)
		}
		if s.Post != nil {
			collectWritesExpr(s.Post, ws)
		}
		collectWrites(s.Body, ws)
	case *ast.Switch:
		collectWritesExpr(s.X, ws)
		for _, c := range s.Cases {
			for _, st := range c.Stmts {
				collectWrites(st, ws)
			}
		}
	case *ast.Enclose:
		collectWrites(s.Body, ws)
	case *ast.Return:
		if s.X != nil {
			collectWritesExpr(s.X, ws)
		}
	}
}

func collectWritesExpr(e ast.Expr, ws *writeSet) {
	switch e := e.(type) {
	case *ast.Assign:
		recordWrite(e.LHS, ws)
		collectWritesExpr(e.RHS, ws)
	case *ast.Unary:
		if e.Op == token.PlusPlus || e.Op == token.MinusMinus {
			recordWrite(e.X, ws)
		}
		collectWritesExpr(e.X, ws)
	case *ast.Postfix:
		recordWrite(e.X, ws)
		collectWritesExpr(e.X, ws)
	case *ast.Binary:
		collectWritesExpr(e.X, ws)
		collectWritesExpr(e.Y, ws)
	case *ast.Cond:
		collectWritesExpr(e.C, ws)
		collectWritesExpr(e.Then, ws)
		collectWritesExpr(e.Else, ws)
	case *ast.Call:
		ws.hasCall = true
		for _, a := range e.Args {
			// &x passed to a call: the callee may write x, but the
			// intraprocedural pass cannot see it.
			if u, ok := a.(*ast.Unary); ok && u.Op == token.Amp {
				if n, ok := identName(u.X); ok {
					ws.addrTakenIn[n] = true
				}
			}
			collectWritesExpr(a, ws)
		}
	case *ast.Index:
		collectWritesExpr(e.X, ws)
		collectWritesExpr(e.Idx, ws)
	case *ast.Cast:
		collectWritesExpr(e.X, ws)
	}
}

func recordWrite(lhs ast.Expr, ws *writeSet) {
	switch lhs := lhs.(type) {
	case *ast.Ident:
		if !ws.locals[lhs.Name] {
			ws.simple[lhs.Name] = true
		}
	case *ast.Index:
		if name, ok := identName(lhs.X); ok && !ws.locals[name] {
			if _, isConst := constEval(lhs.Idx); isConst {
				ws.arrConst[name] = true
			} else {
				ws.arrDyn[name] = true
			}
			// Indexing a pointer variable is also a pointer store.
			ws.ptrStore[name] = true
		}
	case *ast.Unary:
		if lhs.Op == token.Star {
			if name, ok := identName(lhs.X); ok && !ws.locals[name] {
				ws.ptrStore[name] = true
			}
		}
	}
}

func identName(e ast.Expr) (string, bool) {
	if id, ok := e.(*ast.Ident); ok {
		return id.Name, true
	}
	return "", false
}

// constEval folds compile-time constants: literals, sizeof, and arithmetic
// over them — the same power the parser's constant evaluator has.
func constEval(e ast.Expr) (int64, bool) {
	switch e := e.(type) {
	case *ast.IntLit:
		return int64(e.Val), true
	case *ast.SizeofExpr:
		return int64(e.Of.Size()), true
	case *ast.Unary:
		v, ok := constEval(e.X)
		if !ok {
			return 0, false
		}
		switch e.Op {
		case token.Minus:
			return -v, true
		case token.Tilde:
			return int64(^uint32(v)), true
		}
	case *ast.Binary:
		a, okA := constEval(e.X)
		b, okB := constEval(e.Y)
		if !okA || !okB {
			return 0, false
		}
		switch e.Op {
		case token.Plus:
			return a + b, true
		case token.Minus:
			return a - b, true
		case token.Star:
			return a * b, true
		case token.Slash:
			if b != 0 {
				return a / b, true
			}
		case token.Shl:
			return a << uint(b&31), true
		case token.Shr:
			return a >> uint(b&31), true
		}
	}
	return 0, false
}

// exprString renders an expression for annotation output.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.IntLit:
		return fmt.Sprintf("%d", e.Val)
	case *ast.StrLit:
		return fmt.Sprintf("%q", e.Val)
	case *ast.Ident:
		return e.Name
	case *ast.Index:
		return exprString(e.X) + "[" + exprString(e.Idx) + "]"
	case *ast.Unary:
		return e.Op.String() + exprString(e.X)
	case *ast.Postfix:
		return exprString(e.X) + e.Op.String()
	case *ast.Binary:
		return exprString(e.X) + e.Op.String() + exprString(e.Y)
	case *ast.Assign:
		return exprString(e.LHS) + e.Op.String() + exprString(e.RHS)
	case *ast.Call:
		args := make([]string, len(e.Args))
		for i, a := range e.Args {
			args[i] = exprString(a)
		}
		return e.Fun.Name + "(" + strings.Join(args, ",") + ")"
	case *ast.Cast:
		return "(" + e.To.String() + ")" + exprString(e.X)
	case *ast.SizeofExpr:
		return "sizeof(" + e.Of.String() + ")"
	case *ast.Cond:
		return exprString(e.C) + "?" + exprString(e.Then) + ":" + exprString(e.Else)
	}
	return "?"
}

// Proposal is a suggested enclosure annotation for a statement that
// contains potential implicit flows but is not already enclosed.
type Proposal struct {
	Pos     token.Pos
	Func    string
	Outputs []string
}

// Propose suggests enclosure regions: for every outermost control
// construct (if/loop/switch) not already inside an __enclose, it emits the
// write set the pilot analysis can name. This is the "inference can simply
// choose starting and ending points enclosing every possible implicit flow
// operation" mode of §8.6.
func Propose(f *ast.File) []Proposal {
	var out []Proposal
	for _, fn := range f.Funcs {
		for _, s := range fn.Body.Stmts {
			proposeStmt(s, fn.Name, &out)
		}
	}
	return out
}

func proposeStmt(s ast.Stmt, fn string, out *[]Proposal) {
	switch s := s.(type) {
	case *ast.Block:
		for _, st := range s.Stmts {
			proposeStmt(st, fn, out)
		}
	case *ast.Enclose:
		return // already annotated; nested constructs are covered
	case *ast.If, *ast.While, *ast.DoWhile, *ast.For, *ast.Switch:
		ws := newWriteSet()
		collectWrites(s, ws)
		var outputs []string
		for n := range ws.simple {
			outputs = append(outputs, n)
		}
		for n := range ws.arrConst {
			outputs = append(outputs, n+"[const]")
		}
		for n := range ws.arrDyn {
			outputs = append(outputs, n+"[*]")
		}
		for n := range ws.ptrStore {
			outputs = append(outputs, "*"+n)
		}
		*out = append(*out, Proposal{Pos: s.Pos(), Func: fn, Outputs: dedupSort(outputs)})
	}
}

func dedupSort(in []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	strings := out
	for i := 1; i < len(strings); i++ {
		for j := i; j > 0 && strings[j-1] > strings[j]; j-- {
			strings[j-1], strings[j] = strings[j], strings[j-1]
		}
	}
	return strings
}

// walkStmts applies fn to every statement in a subtree, including nested
// ones.
func walkStmts(s ast.Stmt, fn func(ast.Stmt)) {
	if s == nil {
		return
	}
	fn(s)
	switch s := s.(type) {
	case *ast.Block:
		for _, st := range s.Stmts {
			walkStmts(st, fn)
		}
	case *ast.If:
		walkStmts(s.Then, fn)
		walkStmts(s.Else, fn)
	case *ast.While:
		walkStmts(s.Body, fn)
	case *ast.DoWhile:
		walkStmts(s.Body, fn)
	case *ast.For:
		walkStmts(s.Init, fn)
		walkStmts(s.Body, fn)
	case *ast.Switch:
		for _, c := range s.Cases {
			for _, st := range c.Stmts {
				walkStmts(st, fn)
			}
		}
	case *ast.Enclose:
		walkStmts(s.Body, fn)
	}
}
