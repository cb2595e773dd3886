// Package parser implements a recursive-descent parser for MiniC.
package parser

import (
	"fmt"

	"flowcheck/internal/lang/ast"
	"flowcheck/internal/lang/lexer"
	"flowcheck/internal/lang/token"
)

// Error is a syntax error with position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: syntax error: %s", e.Pos, e.Msg) }

type parser struct {
	toks []token.Token
	pos  int
}

// Parse lexes and parses one MiniC source file.
func Parse(file, src string) (*ast.File, error) {
	toks, err := lexer.Tokenize(file, src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	return p.file(file)
}

// cur points at the current token; reading through it copies no token.
func (p *parser) cur() *token.Token { return &p.toks[p.pos] }

// peek returns the kind of the token after the current one.
func (p *parser) peek() token.Kind {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1].Kind
	}
	return p.toks[len(p.toks)-1].Kind
}

func (p *parser) next() token.Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) at(k token.Kind) bool { return p.cur().Kind == k }

func (p *parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k token.Kind) (token.Token, error) {
	if !p.at(k) {
		return token.Token{}, p.errf("expected %s, found %s", k, p.cur())
	}
	return p.next(), nil
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &Error{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)}
}

func isTypeKeyword(k token.Kind) bool {
	return k == token.KwInt || k == token.KwUint || k == token.KwChar || k == token.KwVoid
}

// ----------------------------------------------------------------- file ---

func (p *parser) file(name string) (*ast.File, error) {
	f := &ast.File{Name: name}
	for !p.at(token.EOF) {
		if !isTypeKeyword(p.cur().Kind) {
			return nil, p.errf("expected declaration, found %s", p.cur())
		}
		base, err := p.baseType()
		if err != nil {
			return nil, err
		}
		// Peek past pointer stars to see if this is a function definition.
		stars := 0
		for p.at(token.Star) {
			stars++
			p.next()
		}
		nameTok, err := p.expect(token.Ident)
		if err != nil {
			return nil, err
		}
		typ := applyStars(base, stars)
		if p.at(token.LParen) {
			fd, err := p.funcDecl(nameTok, typ)
			if err != nil {
				return nil, err
			}
			f.Funcs = append(f.Funcs, fd)
			continue
		}
		decls, err := p.declarators(base, typ, nameTok)
		if err != nil {
			return nil, err
		}
		f.Globals = append(f.Globals, decls...)
	}
	return f, nil
}

func applyStars(t *ast.Type, stars int) *ast.Type {
	for i := 0; i < stars; i++ {
		t = ast.PointerTo(t)
	}
	return t
}

func (p *parser) baseType() (*ast.Type, error) {
	switch p.next().Kind {
	case token.KwInt:
		return ast.IntType, nil
	case token.KwUint:
		return ast.UintType, nil
	case token.KwChar:
		return ast.CharType, nil
	case token.KwVoid:
		return ast.VoidType, nil
	}
	return nil, p.errf("expected type")
}

// declarators parses the remainder of a variable declaration line after the
// first declarator's name token has been consumed, through the semicolon.
func (p *parser) declarators(base, firstType *ast.Type, firstName token.Token) ([]*ast.VarDecl, error) {
	var decls []*ast.VarDecl
	typ, nameTok := firstType, firstName
	for {
		typ2, err := p.arraySuffix(typ)
		if err != nil {
			return nil, err
		}
		vd := &ast.VarDecl{StmtBase: ast.NewStmtBase(nameTok.Pos), Name: nameTok.Text, T: typ2}
		if p.accept(token.Assign) {
			init, err := p.assignExpr()
			if err != nil {
				return nil, err
			}
			vd.Init = init
		}
		decls = append(decls, vd)
		if p.accept(token.Comma) {
			stars := 0
			for p.at(token.Star) {
				stars++
				p.next()
			}
			nameTok, err = p.expect(token.Ident)
			if err != nil {
				return nil, err
			}
			typ = applyStars(base, stars)
			continue
		}
		if _, err := p.expect(token.Semi); err != nil {
			return nil, err
		}
		return decls, nil
	}
}

// arraySuffix parses zero or more [N] suffixes, building nested array types
// (outermost dimension first, as in C).
func (p *parser) arraySuffix(t *ast.Type) (*ast.Type, error) {
	var lens []int
	for p.accept(token.LBracket) {
		n, err := p.constExpr()
		if err != nil {
			return nil, err
		}
		if n <= 0 || n > 1<<24 {
			return nil, p.errf("array length %d out of range", n)
		}
		lens = append(lens, int(n))
		if _, err := p.expect(token.RBracket); err != nil {
			return nil, err
		}
	}
	for i := len(lens) - 1; i >= 0; i-- {
		t = ast.ArrayOf(t, lens[i])
	}
	return t, nil
}

// constExpr evaluates a compile-time constant expression for array lengths
// and case labels: literals, sizeof, unary -/~, and the binary arithmetic,
// shift, and bitwise operators over them.
func (p *parser) constExpr() (int64, error) {
	e, err := p.binaryExpr(1)
	if err != nil {
		return 0, err
	}
	return p.evalConst(e)
}

func (p *parser) evalConst(e ast.Expr) (int64, error) {
	switch e := e.(type) {
	case *ast.IntLit:
		return int64(e.Val), nil
	case *ast.SizeofExpr:
		return int64(e.Of.Size()), nil
	case *ast.Unary:
		v, err := p.evalConst(e.X)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case token.Minus:
			return -v, nil
		case token.Tilde:
			return int64(uint32(^uint32(v))), nil
		case token.Bang:
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		}
	case *ast.Binary:
		a, err := p.evalConst(e.X)
		if err != nil {
			return 0, err
		}
		b, err := p.evalConst(e.Y)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case token.Plus:
			return a + b, nil
		case token.Minus:
			return a - b, nil
		case token.Star:
			return a * b, nil
		case token.Slash:
			if b == 0 {
				return 0, &Error{Pos: e.Pos(), Msg: "division by zero in constant"}
			}
			return a / b, nil
		case token.Percent:
			if b == 0 {
				return 0, &Error{Pos: e.Pos(), Msg: "modulo by zero in constant"}
			}
			return a % b, nil
		case token.Shl:
			return a << uint(b&31), nil
		case token.Shr:
			return a >> uint(b&31), nil
		case token.Amp:
			return a & b, nil
		case token.Pipe:
			return a | b, nil
		case token.Caret:
			return a ^ b, nil
		}
	}
	return 0, &Error{Pos: e.Pos(), Msg: "expression is not a compile-time constant"}
}

// ------------------------------------------------------------ functions ---

func (p *parser) funcDecl(nameTok token.Token, result *ast.Type) (*ast.FuncDecl, error) {
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	fd := &ast.FuncDecl{P: nameTok.Pos, Name: nameTok.Text, Result: result}
	if p.at(token.KwVoid) && p.peek() == token.RParen {
		p.next()
	}
	if !p.at(token.RParen) {
		for {
			if !isTypeKeyword(p.cur().Kind) {
				return nil, p.errf("expected parameter type")
			}
			base, err := p.baseType()
			if err != nil {
				return nil, err
			}
			stars := 0
			for p.at(token.Star) {
				stars++
				p.next()
			}
			pn, err := p.expect(token.Ident)
			if err != nil {
				return nil, err
			}
			typ := applyStars(base, stars)
			// Array parameters decay to pointers, as in C.
			if p.accept(token.LBracket) {
				if !p.at(token.RBracket) {
					if _, err := p.constExpr(); err != nil {
						return nil, err
					}
				}
				if _, err := p.expect(token.RBracket); err != nil {
					return nil, err
				}
				typ = ast.PointerTo(typ)
			}
			fd.Params = append(fd.Params, &ast.VarDecl{
				StmtBase: ast.NewStmtBase(pn.Pos), Name: pn.Text, T: typ,
			})
			if !p.accept(token.Comma) {
				break
			}
		}
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	fd.Body = body
	return fd, nil
}

// ------------------------------------------------------------ statements ---

func (p *parser) block() (*ast.Block, error) {
	lb, err := p.expect(token.LBrace)
	if err != nil {
		return nil, err
	}
	b := &ast.Block{StmtBase: ast.NewStmtBase(lb.Pos)}
	for !p.at(token.RBrace) {
		if p.at(token.EOF) {
			return nil, p.errf("unexpected EOF in block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.next() // consume }
	return b, nil
}

func (p *parser) stmt() (ast.Stmt, error) {
	t := p.cur()
	switch t.Kind {
	case token.LBrace:
		return p.block()

	case token.Semi:
		p.next()
		return &ast.Empty{StmtBase: ast.NewStmtBase(t.Pos)}, nil

	case token.KwInt, token.KwUint, token.KwChar, token.KwVoid:
		return p.declStmt()

	case token.KwIf:
		p.next()
		if _, err := p.expect(token.LParen); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RParen); err != nil {
			return nil, err
		}
		then, err := p.stmt()
		if err != nil {
			return nil, err
		}
		var els ast.Stmt
		if p.accept(token.KwElse) {
			els, err = p.stmt()
			if err != nil {
				return nil, err
			}
		}
		return &ast.If{StmtBase: ast.NewStmtBase(t.Pos), Cond: cond, Then: then, Else: els}, nil

	case token.KwWhile:
		p.next()
		if _, err := p.expect(token.LParen); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RParen); err != nil {
			return nil, err
		}
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		return &ast.While{StmtBase: ast.NewStmtBase(t.Pos), Cond: cond, Body: body}, nil

	case token.KwDo:
		p.next()
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.KwWhile); err != nil {
			return nil, err
		}
		if _, err := p.expect(token.LParen); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(token.Semi); err != nil {
			return nil, err
		}
		return &ast.DoWhile{StmtBase: ast.NewStmtBase(t.Pos), Body: body, Cond: cond}, nil

	case token.KwFor:
		return p.forStmt()

	case token.KwSwitch:
		return p.switchStmt()

	case token.KwReturn:
		p.next()
		r := &ast.Return{StmtBase: ast.NewStmtBase(t.Pos)}
		if !p.at(token.Semi) {
			x, err := p.expr()
			if err != nil {
				return nil, err
			}
			r.X = x
		}
		if _, err := p.expect(token.Semi); err != nil {
			return nil, err
		}
		return r, nil

	case token.KwBreak:
		p.next()
		if _, err := p.expect(token.Semi); err != nil {
			return nil, err
		}
		return &ast.Break{StmtBase: ast.NewStmtBase(t.Pos)}, nil

	case token.KwContinue:
		p.next()
		if _, err := p.expect(token.Semi); err != nil {
			return nil, err
		}
		return &ast.Continue{StmtBase: ast.NewStmtBase(t.Pos)}, nil

	case token.KwEnclose:
		return p.encloseStmt()
	}

	// Expression statement.
	x, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Semi); err != nil {
		return nil, err
	}
	return &ast.ExprStmt{StmtBase: ast.NewStmtBase(t.Pos), X: x}, nil
}

func (p *parser) declStmt() (ast.Stmt, error) {
	pos := p.cur().Pos
	base, err := p.baseType()
	if err != nil {
		return nil, err
	}
	stars := 0
	for p.at(token.Star) {
		stars++
		p.next()
	}
	nameTok, err := p.expect(token.Ident)
	if err != nil {
		return nil, err
	}
	decls, err := p.declarators(base, applyStars(base, stars), nameTok)
	if err != nil {
		return nil, err
	}
	return &ast.DeclStmt{StmtBase: ast.NewStmtBase(pos), Decls: decls}, nil
}

func (p *parser) forStmt() (ast.Stmt, error) {
	t := p.next() // for
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	f := &ast.For{StmtBase: ast.NewStmtBase(t.Pos)}
	if !p.at(token.Semi) {
		if isTypeKeyword(p.cur().Kind) {
			init, err := p.declStmt() // consumes the semicolon
			if err != nil {
				return nil, err
			}
			f.Init = init
		} else {
			x, err := p.expr()
			if err != nil {
				return nil, err
			}
			f.Init = &ast.ExprStmt{StmtBase: ast.NewStmtBase(x.Pos()), X: x}
			if _, err := p.expect(token.Semi); err != nil {
				return nil, err
			}
		}
	} else {
		p.next()
	}
	if !p.at(token.Semi) {
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		f.Cond = cond
	}
	if _, err := p.expect(token.Semi); err != nil {
		return nil, err
	}
	if !p.at(token.RParen) {
		post, err := p.expr()
		if err != nil {
			return nil, err
		}
		f.Post = post
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	body, err := p.stmt()
	if err != nil {
		return nil, err
	}
	f.Body = body
	return f, nil
}

func (p *parser) switchStmt() (ast.Stmt, error) {
	t := p.next() // switch
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	x, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.LBrace); err != nil {
		return nil, err
	}
	sw := &ast.Switch{StmtBase: ast.NewStmtBase(t.Pos), X: x}
	for !p.at(token.RBrace) {
		ct := p.cur()
		var c *ast.Case
		switch ct.Kind {
		case token.KwCase:
			p.next()
			v, err := p.constExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(token.Colon); err != nil {
				return nil, err
			}
			c = &ast.Case{StmtBase: ast.NewStmtBase(ct.Pos), Vals: []int64{v}}
		case token.KwDefault:
			p.next()
			if _, err := p.expect(token.Colon); err != nil {
				return nil, err
			}
			c = &ast.Case{StmtBase: ast.NewStmtBase(ct.Pos), IsDefault: true}
		default:
			return nil, p.errf("expected case or default in switch, found %s", ct)
		}
		for !p.at(token.KwCase) && !p.at(token.KwDefault) && !p.at(token.RBrace) {
			if p.at(token.EOF) {
				return nil, p.errf("unexpected EOF in switch")
			}
			s, err := p.stmt()
			if err != nil {
				return nil, err
			}
			c.Stmts = append(c.Stmts, s)
		}
		sw.Cases = append(sw.Cases, c)
	}
	p.next() // }
	return sw, nil
}

func (p *parser) encloseStmt() (ast.Stmt, error) {
	t := p.next() // __enclose
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	enc := &ast.Enclose{StmtBase: ast.NewStmtBase(t.Pos)}
	if !p.at(token.RParen) {
		for {
			// Items are parsed below the ternary level so that the
			// `ptr : len` form is unambiguous.
			item, err := p.binaryExpr(1)
			if err != nil {
				return nil, err
			}
			it := ast.EncItem{Ptr: item}
			if p.accept(token.Colon) {
				l, err := p.binaryExpr(1)
				if err != nil {
					return nil, err
				}
				it.Len = l
			}
			enc.Items = append(enc.Items, it)
			if !p.accept(token.Comma) {
				break
			}
		}
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	enc.Body = body
	return enc, nil
}

// ----------------------------------------------------------- expressions ---

func (p *parser) expr() (ast.Expr, error) { return p.assignExpr() }

var assignOps = [256]bool{
	token.Assign: true, token.PlusAssign: true, token.MinusAssign: true,
	token.StarAssign: true, token.SlashAssign: true, token.PercentAssign: true,
	token.AmpAssign: true, token.PipeAssign: true, token.CaretAssign: true,
	token.ShlAssign: true, token.ShrAssign: true,
}

func (p *parser) assignExpr() (ast.Expr, error) {
	lhs, err := p.ternaryExpr()
	if err != nil {
		return nil, err
	}
	if assignOps[p.cur().Kind] {
		op := p.next().Kind
		rhs, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		return &ast.Assign{ExprBase: ast.NewExprBase(lhs.Pos()), Op: op, LHS: lhs, RHS: rhs}, nil
	}
	return lhs, nil
}

func (p *parser) ternaryExpr() (ast.Expr, error) {
	cond, err := p.binaryExpr(1)
	if err != nil {
		return nil, err
	}
	if !p.accept(token.Question) {
		return cond, nil
	}
	then, err := p.assignExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Colon); err != nil {
		return nil, err
	}
	els, err := p.ternaryExpr()
	if err != nil {
		return nil, err
	}
	return &ast.Cond{ExprBase: ast.NewExprBase(cond.Pos()), C: cond, Then: then, Else: els}, nil
}

// binaryPrec gives each binary operator's precedence, from 1 (||, the
// loosest) to 10 (* / %, the tightest). 0 marks a kind that is not a
// binary operator.
var binaryPrec = [256]uint8{
	token.OrOr:   1,
	token.AndAnd: 2,
	token.Pipe:   3,
	token.Caret:  4,
	token.Amp:    5,
	token.EqEq:   6, token.NotEq: 6,
	token.Lt: 7, token.Le: 7, token.Gt: 7, token.Ge: 7,
	token.Shl: 8, token.Shr: 8,
	token.Plus: 9, token.Minus: 9,
	token.Star: 10, token.Slash: 10, token.Percent: 10,
}

// binaryExpr parses a chain of binary operators of precedence minPrec or
// tighter by precedence climbing: one call per operator, each operand one
// unaryExpr, and operators of equal precedence associate to the left.
// binaryExpr(1) parses every binary operator.
func (p *parser) binaryExpr(minPrec uint8) (ast.Expr, error) {
	lhs, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		op := p.cur().Kind
		prec := binaryPrec[op]
		if prec < minPrec {
			return lhs, nil
		}
		p.next()
		rhs, err := p.binaryExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &ast.Binary{ExprBase: ast.NewExprBase(lhs.Pos()), Op: op, X: lhs, Y: rhs}
	}
}

func (p *parser) unaryExpr() (ast.Expr, error) {
	t := p.cur()
	switch t.Kind {
	case token.Bang, token.Tilde, token.Minus, token.Star, token.Amp:
		p.next()
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &ast.Unary{ExprBase: ast.NewExprBase(t.Pos), Op: t.Kind, X: x}, nil

	case token.PlusPlus, token.MinusMinus:
		p.next()
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &ast.Unary{ExprBase: ast.NewExprBase(t.Pos), Op: t.Kind, X: x}, nil

	case token.KwSizeof:
		p.next()
		if _, err := p.expect(token.LParen); err != nil {
			return nil, err
		}
		typ, err := p.typeName()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RParen); err != nil {
			return nil, err
		}
		return &ast.SizeofExpr{ExprBase: ast.NewExprBase(t.Pos), Of: typ}, nil

	case token.LParen:
		// Cast if the parenthesis starts a type.
		if isTypeKeyword(p.peek()) {
			p.next()
			typ, err := p.typeName()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(token.RParen); err != nil {
				return nil, err
			}
			x, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			return &ast.Cast{ExprBase: ast.NewExprBase(t.Pos), To: typ, X: x}, nil
		}
	}
	return p.postfixExpr()
}

// typeName parses a type in cast/sizeof position: base type plus stars.
func (p *parser) typeName() (*ast.Type, error) {
	if !isTypeKeyword(p.cur().Kind) {
		return nil, p.errf("expected type name")
	}
	base, err := p.baseType()
	if err != nil {
		return nil, err
	}
	stars := 0
	for p.at(token.Star) {
		stars++
		p.next()
	}
	return applyStars(base, stars), nil
}

func (p *parser) postfixExpr() (ast.Expr, error) {
	x, err := p.primaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		switch t.Kind {
		case token.LBracket:
			p.next()
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(token.RBracket); err != nil {
				return nil, err
			}
			x = &ast.Index{ExprBase: ast.NewExprBase(x.Pos()), X: x, Idx: idx}

		case token.PlusPlus, token.MinusMinus:
			p.next()
			x = &ast.Postfix{ExprBase: ast.NewExprBase(x.Pos()), Op: t.Kind, X: x}

		case token.LParen:
			id, ok := x.(*ast.Ident)
			if !ok {
				return nil, p.errf("called object is not a function name")
			}
			p.next()
			call := &ast.Call{ExprBase: ast.NewExprBase(id.Pos()), Fun: id}
			if !p.at(token.RParen) {
				for {
					arg, err := p.assignExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, arg)
					if !p.accept(token.Comma) {
						break
					}
				}
			}
			if _, err := p.expect(token.RParen); err != nil {
				return nil, err
			}
			x = call

		default:
			return x, nil
		}
	}
}

func (p *parser) primaryExpr() (ast.Expr, error) {
	t := p.cur()
	switch t.Kind {
	case token.Int:
		p.next()
		return &ast.IntLit{ExprBase: ast.NewExprBase(t.Pos), Val: uint32(t.Val)}, nil
	case token.String:
		p.next()
		return &ast.StrLit{ExprBase: ast.NewExprBase(t.Pos), Val: t.Str}, nil
	case token.Ident:
		p.next()
		return &ast.Ident{ExprBase: ast.NewExprBase(t.Pos), Name: t.Text}, nil
	case token.LParen:
		p.next()
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RParen); err != nil {
			return nil, err
		}
		return x, nil
	}
	return nil, p.errf("expected expression, found %s", t)
}
