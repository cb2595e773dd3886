package parser

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"flowcheck/internal/lang/ast"
	"flowcheck/internal/lang/lexer"
	"flowcheck/internal/lang/token"
)

// The parser's former binary-expression path, kept as an oracle for
// precedence climbing. binaryExprLevels recursed through every level of
// precLevels for every operand and tested each level's kinds in turn;
// assignExprLevels and ternaryExprLevels are assignExpr and ternaryExpr
// over it. Operands below the unary level (parenthesised, index and
// argument sub-expressions) go through the production parser in both, and
// the fuzzer reaches each such sub-expression at top level too.

// precLevels lists the binary operators by precedence, loosest first.
var precLevels = [][]token.Kind{
	{token.OrOr},
	{token.AndAnd},
	{token.Pipe},
	{token.Caret},
	{token.Amp},
	{token.EqEq, token.NotEq},
	{token.Lt, token.Le, token.Gt, token.Ge},
	{token.Shl, token.Shr},
	{token.Plus, token.Minus},
	{token.Star, token.Slash, token.Percent},
}

func (p *parser) assignExprLevels() (ast.Expr, error) {
	lhs, err := p.ternaryExprLevels()
	if err != nil {
		return nil, err
	}
	if assignOps[p.cur().Kind] {
		op := p.next().Kind
		rhs, err := p.assignExprLevels()
		if err != nil {
			return nil, err
		}
		return &ast.Assign{ExprBase: ast.NewExprBase(lhs.Pos()), Op: op, LHS: lhs, RHS: rhs}, nil
	}
	return lhs, nil
}

func (p *parser) ternaryExprLevels() (ast.Expr, error) {
	cond, err := p.binaryExprLevels(0)
	if err != nil {
		return nil, err
	}
	if !p.accept(token.Question) {
		return cond, nil
	}
	then, err := p.assignExprLevels()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Colon); err != nil {
		return nil, err
	}
	els, err := p.ternaryExprLevels()
	if err != nil {
		return nil, err
	}
	return &ast.Cond{ExprBase: ast.NewExprBase(cond.Pos()), C: cond, Then: then, Else: els}, nil
}

func (p *parser) binaryExprLevels(level int) (ast.Expr, error) {
	if level >= len(precLevels) {
		return p.unaryExpr()
	}
	lhs, err := p.binaryExprLevels(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		matched := false
		for _, k := range precLevels[level] {
			if p.at(k) {
				p.next()
				rhs, err := p.binaryExprLevels(level + 1)
				if err != nil {
					return nil, err
				}
				lhs = &ast.Binary{ExprBase: ast.NewExprBase(lhs.Pos()), Op: k, X: lhs, Y: rhs}
				matched = true
				break
			}
		}
		if !matched {
			return lhs, nil
		}
	}
}

// TestPrecLevelsMatchTable checks that binaryPrec ranks exactly the
// operators of precLevels, in the same order.
func TestPrecLevelsMatchTable(t *testing.T) {
	want := [256]uint8{}
	for level, kinds := range precLevels {
		for _, k := range kinds {
			want[k] = uint8(level + 1)
		}
	}
	if binaryPrec != want {
		t.Fatalf("binaryPrec = %v, want %v", binaryPrec, want)
	}
}

// Words of the random expressions, by role.
var (
	binaryWords = []string{
		"||", "&&", "|", "^", "&", "==", "!=", "<", "<=", ">", ">=",
		"<<", ">>", "+", "-", "*", "/", "%",
	}
	assignWords  = []string{"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}
	prefixWords  = []string{"!", "~", "-", "*", "&", "++", "--", "(int)"}
	operandWords = []string{"a", "b", "c", "1", "0x2f", "'z'", `"s"`, "sizeof(int)"}
)

// exprWords is the vocabulary FuzzParseExpr draws from: operands, every
// binary and assignment operator, the unary and postfix operators,
// parentheses, casts, sizeof, indexing, calls and the ternary.
var exprWords = concatWords(operandWords, binaryWords, assignWords, []string{
	"!", "~", "++", "--", "(", ")", "[", "]", ",", "?", ":",
	"(int)", "(char*)", "f(", "x[",
})

func concatWords(lists ...[]string) []string {
	var all []string
	for _, l := range lists {
		all = append(all, l...)
	}
	return all
}

// exprSource spells a fuzz input as an expression, one word per byte.
func exprSource(data []byte) string {
	words := make([]string, len(data))
	for i, b := range data {
		words[i] = exprWords[int(b)%len(exprWords)]
	}
	return strings.Join(words, " ")
}

// exprBytes is exprSource's inverse, for writing seeds as text.
func exprBytes(src string) []byte {
	var data []byte
	for _, w := range strings.Fields(src) {
		for i, v := range exprWords {
			if v == w {
				data = append(data, byte(i))
			}
		}
	}
	return data
}

// checkExprMatchesLevels parses src with the production parser and with
// the oracle, and fails unless both give the same tree, or the same
// error, and stop at the same token.
func checkExprMatchesLevels(t *testing.T, src string) {
	t.Helper()
	toks, err := lexer.Tokenize("t.mc", src)
	if err != nil {
		t.Fatalf("%q: %v", src, err)
	}
	p := &parser{toks: toks}
	got, gotErr := p.expr()
	o := &parser{toks: toks}
	want, wantErr := o.assignExprLevels()
	if !reflect.DeepEqual(gotErr, wantErr) {
		t.Fatalf("%q: precedence climbing gives error %v, the level parser %v", src, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: precedence climbing and the level parser build different trees", src)
	}
	if p.pos != o.pos {
		t.Fatalf("%q: precedence climbing stops at token %d, the level parser at %d", src, p.pos, o.pos)
	}
}

func FuzzParseExpr(f *testing.F) {
	for _, src := range []string{
		"a + b * c",
		"a - b - c",
		"a || b && c < a",
		"a ? b : c = a",
		"( a + b ) * c",
		"a << b + c >> 1",
		"a | b ^ c & 1 == 0x2f",
		"! a * -- b = c",
		"(int) a % sizeof(int) - x[ 1 ]",
		"f( a , b ) ? c : a += 1",
		"a +",
		"( a + b",
	} {
		f.Add(exprBytes(src))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		checkExprMatchesLevels(t, exprSource(data))
	})
}

// randExpr appends a random well-formed expression to words: operand
// chains joined by binary operators, with unary prefixes, parentheses,
// ternaries and assignments up to depth levels deep.
func randExpr(rng *rand.Rand, words []string, depth int) []string {
	operand := func(words []string) []string {
		for rng.Intn(4) == 0 {
			words = append(words, prefixWords[rng.Intn(len(prefixWords))])
		}
		switch r := rng.Intn(8); {
		case depth > 0 && r == 0:
			words = append(randExpr(rng, append(words, "("), depth-1), ")")
		case depth > 0 && r == 1:
			words = append(randExpr(rng, append(words, "x["), depth-1), "]")
		default:
			words = append(words, operandWords[rng.Intn(len(operandWords))])
		}
		return words
	}
	words = operand(words)
	for rng.Intn(3) != 0 {
		words = append(words, binaryWords[rng.Intn(len(binaryWords))])
		words = operand(words)
	}
	switch rng.Intn(6) {
	case 0:
		if depth > 0 {
			words = randExpr(rng, append(words, "?"), depth-1)
			words = randExpr(rng, append(words, ":"), depth-1)
		}
	case 1:
		if depth > 0 {
			words = randExpr(rng, append(words, assignWords[rng.Intn(len(assignWords))]), depth-1)
		}
	}
	return words
}

// TestParseExprMatchesLevels runs the oracle comparison on every test
// run: over random well-formed expressions, each also with one word
// replaced at random, so that both trees and errors are compared.
func TestParseExprMatchesLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		words := randExpr(rng, nil, 3)
		checkExprMatchesLevels(t, strings.Join(words, " "))
		words[rng.Intn(len(words))] = exprWords[rng.Intn(len(exprWords))]
		checkExprMatchesLevels(t, strings.Join(words, " "))
	}
}
