package lexer

import (
	"fmt"
	"reflect"
	"testing"

	"flowcheck/internal/lang/token"
)

// oracleSingle is the lexer's former one-byte operator fallback, kept as
// an oracle for singleOps: Next built this map on every call that reached
// the fallback, and a byte missing from it was an "unexpected character".
func oracleSingle(pos token.Pos, c byte) (token.Token, error) {
	single := map[byte]token.Kind{
		'(': token.LParen, ')': token.RParen, '{': token.LBrace, '}': token.RBrace,
		'[': token.LBracket, ']': token.RBracket, ';': token.Semi, ',': token.Comma,
		':': token.Colon, '?': token.Question, '=': token.Assign,
		'+': token.Plus, '-': token.Minus, '*': token.Star, '/': token.Slash,
		'%': token.Percent, '&': token.Amp, '|': token.Pipe, '^': token.Caret,
		'~': token.Tilde, '!': token.Bang, '<': token.Lt, '>': token.Gt,
	}
	if k, ok := single[c]; ok {
		return token.Token{Kind: k, Pos: pos}, nil
	}
	return token.Token{}, &Error{Pos: pos, Msg: fmt.Sprintf("unexpected character %q", c)}
}

// TestSingleOpsMatchOracle checks every byte: its singleOps entry against
// the map, and, for each byte that Next hands to the operator fallback
// (not whitespace, not the start of an identifier, number or literal),
// the token or error Next returns for it.
func TestSingleOpsMatchOracle(t *testing.T) {
	pos := token.Pos{File: "t.mc", Line: 1, Col: 3}
	for b := 0; b < 256; b++ {
		c := byte(b)
		want, wantErr := oracleSingle(pos, c)
		if k := singleOps[c]; k != want.Kind {
			t.Errorf("byte %#02x: singleOps has %v, map has %v", c, k, want.Kind)
		}
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			continue
		case isIdentStart(c) || isDigit(c) || c == '\'' || c == '"':
			continue
		}
		lx := New("t.mc", "x "+string([]byte{c}))
		lx.Next()
		got, gotErr := lx.Next()
		if got != want || !reflect.DeepEqual(gotErr, wantErr) {
			t.Errorf("byte %#02x: Next gives %v, %v; the map gives %v, %v", c, got, gotErr, want, wantErr)
		}
	}
}
