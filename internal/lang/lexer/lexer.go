// Package lexer tokenizes MiniC source text.
package lexer

import (
	"fmt"
	"strconv"
	"strings"

	"flowcheck/internal/lang/token"
)

// Error is a lexical error with position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans MiniC source into tokens.
type Lexer struct {
	src  string
	file string
	off  int
	line int
	col  int
}

// New returns a lexer over src; file names positions in diagnostics.
func New(file, src string) *Lexer {
	return &Lexer{src: src, file: file, line: 1, col: 1}
}

// Tokenize scans the whole input, returning all tokens followed by an EOF
// token.
func Tokenize(file, src string) ([]token.Token, error) {
	lx := New(file, src)
	// Guests average 3.5 to 5 source bytes per token, so one allocation
	// almost always holds them all; a denser source grows by append.
	toks := make([]token.Token, 0, len(src)/3+1)
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks, nil
		}
	}
}

func (l *Lexer) pos() token.Pos {
	return token.Pos{File: l.file, Line: l.line, Col: l.col}
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() error {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return &Error{Pos: start, Msg: "unterminated block comment"}
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdent(c byte) bool { return isIdentStart(c) || isDigit(c) }

// singleOps maps each one-byte operator or punctuation character to its
// kind. EOF, the zero kind, marks a byte that starts no operator.
var singleOps = [256]token.Kind{
	'(': token.LParen, ')': token.RParen, '{': token.LBrace, '}': token.RBrace,
	'[': token.LBracket, ']': token.RBracket, ';': token.Semi, ',': token.Comma,
	':': token.Colon, '?': token.Question, '=': token.Assign,
	'+': token.Plus, '-': token.Minus, '*': token.Star, '/': token.Slash,
	'%': token.Percent, '&': token.Amp, '|': token.Pipe, '^': token.Caret,
	'~': token.Tilde, '!': token.Bang, '<': token.Lt, '>': token.Gt,
}

// Next returns the next token.
func (l *Lexer) Next() (token.Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return token.Token{}, err
	}
	pos := l.pos()
	if l.off >= len(l.src) {
		return token.Token{Kind: token.EOF, Pos: pos}, nil
	}
	c := l.peek()

	switch {
	case isIdentStart(c):
		start := l.off
		for l.off < len(l.src) && isIdent(l.peek()) {
			l.advance()
		}
		text := l.src[start:l.off]
		if kw, ok := token.Keywords[text]; ok {
			return token.Token{Kind: kw, Pos: pos, Text: text}, nil
		}
		return token.Token{Kind: token.Ident, Pos: pos, Text: text}, nil

	case isDigit(c):
		return l.number(pos)

	case c == '\'':
		return l.charLit(pos)

	case c == '"':
		return l.stringLit(pos)
	}

	// Operators: longest match first.
	two := ""
	if l.off+1 < len(l.src) {
		two = l.src[l.off : l.off+2]
	}
	three := ""
	if l.off+2 < len(l.src) {
		three = l.src[l.off : l.off+3]
	}
	mk := func(k token.Kind, n int) (token.Token, error) {
		for i := 0; i < n; i++ {
			l.advance()
		}
		return token.Token{Kind: k, Pos: pos}, nil
	}
	switch three {
	case "<<=":
		return mk(token.ShlAssign, 3)
	case ">>=":
		return mk(token.ShrAssign, 3)
	}
	switch two {
	case "<<":
		return mk(token.Shl, 2)
	case ">>":
		return mk(token.Shr, 2)
	case "<=":
		return mk(token.Le, 2)
	case ">=":
		return mk(token.Ge, 2)
	case "==":
		return mk(token.EqEq, 2)
	case "!=":
		return mk(token.NotEq, 2)
	case "&&":
		return mk(token.AndAnd, 2)
	case "||":
		return mk(token.OrOr, 2)
	case "++":
		return mk(token.PlusPlus, 2)
	case "--":
		return mk(token.MinusMinus, 2)
	case "+=":
		return mk(token.PlusAssign, 2)
	case "-=":
		return mk(token.MinusAssign, 2)
	case "*=":
		return mk(token.StarAssign, 2)
	case "/=":
		return mk(token.SlashAssign, 2)
	case "%=":
		return mk(token.PercentAssign, 2)
	case "&=":
		return mk(token.AmpAssign, 2)
	case "|=":
		return mk(token.PipeAssign, 2)
	case "^=":
		return mk(token.CaretAssign, 2)
	}
	if k := singleOps[c]; k != token.EOF {
		return mk(k, 1)
	}
	return token.Token{}, &Error{Pos: pos, Msg: fmt.Sprintf("unexpected character %q", c)}
}

func (l *Lexer) number(pos token.Pos) (token.Token, error) {
	start := l.off
	if l.peek() == '0' && (l.peek2() == 'x' || l.peek2() == 'X') {
		l.advance()
		l.advance()
		for l.off < len(l.src) && isHex(l.peek()) {
			l.advance()
		}
		text := l.src[start:l.off]
		v, err := strconv.ParseUint(text[2:], 16, 64)
		if err != nil || v > 0xFFFFFFFF {
			return token.Token{}, &Error{Pos: pos, Msg: "invalid hex literal " + text}
		}
		return token.Token{Kind: token.Int, Pos: pos, Text: text, Val: int64(v)}, nil
	}
	for l.off < len(l.src) && isDigit(l.peek()) {
		l.advance()
	}
	text := l.src[start:l.off]
	v, err := strconv.ParseUint(text, 10, 64)
	if err != nil || v > 0xFFFFFFFF {
		return token.Token{}, &Error{Pos: pos, Msg: "integer literal out of 32-bit range: " + text}
	}
	return token.Token{Kind: token.Int, Pos: pos, Text: text, Val: int64(v)}, nil
}

func isHex(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func (l *Lexer) escape(pos token.Pos) (byte, error) {
	if l.off >= len(l.src) {
		return 0, &Error{Pos: pos, Msg: "unterminated escape"}
	}
	c := l.advance()
	switch c {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case 'r':
		return '\r', nil
	case '0':
		return 0, nil
	case '\\', '\'', '"':
		return c, nil
	case 'x':
		if l.off+1 >= len(l.src) || !isHex(l.peek()) || !isHex(l.peek2()) {
			return 0, &Error{Pos: pos, Msg: "bad \\x escape"}
		}
		hi, lo := l.advance(), l.advance()
		v, _ := strconv.ParseUint(string([]byte{hi, lo}), 16, 8)
		return byte(v), nil
	}
	return 0, &Error{Pos: pos, Msg: fmt.Sprintf("unknown escape \\%c", c)}
}

func (l *Lexer) charLit(pos token.Pos) (token.Token, error) {
	l.advance() // opening quote
	if l.off >= len(l.src) {
		return token.Token{}, &Error{Pos: pos, Msg: "unterminated char literal"}
	}
	var v byte
	c := l.advance()
	if c == '\\' {
		e, err := l.escape(pos)
		if err != nil {
			return token.Token{}, err
		}
		v = e
	} else if c == '\'' {
		return token.Token{}, &Error{Pos: pos, Msg: "empty char literal"}
	} else {
		v = c
	}
	if l.off >= len(l.src) || l.advance() != '\'' {
		return token.Token{}, &Error{Pos: pos, Msg: "unterminated char literal"}
	}
	return token.Token{Kind: token.Int, Pos: pos, Text: "'" + string(v) + "'", Val: int64(v)}, nil
}

func (l *Lexer) stringLit(pos token.Pos) (token.Token, error) {
	l.advance() // opening quote
	var sb strings.Builder
	for {
		if l.off >= len(l.src) {
			return token.Token{}, &Error{Pos: pos, Msg: "unterminated string literal"}
		}
		c := l.advance()
		if c == '"' {
			break
		}
		if c == '\n' {
			return token.Token{}, &Error{Pos: pos, Msg: "newline in string literal"}
		}
		if c == '\\' {
			e, err := l.escape(pos)
			if err != nil {
				return token.Token{}, err
			}
			sb.WriteByte(e)
			continue
		}
		sb.WriteByte(c)
	}
	return token.Token{Kind: token.String, Pos: pos, Str: sb.String()}, nil
}
