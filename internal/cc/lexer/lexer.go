// Package lexer converts preprocessed C source text into a stream of
// tokens. It understands all of ANSI C's lexical grammar used by FLASH
// protocol code: line and block comments, decimal/octal/hex integer
// literals with suffixes, floating literals, character and string
// literals with escapes, and every operator.
//
// The lexer never calls the preprocessor; package cpp runs first and
// hands the lexer a single logical file. Line markers of the form
//
//	# <line> "<file>"
//
// (written by cpp where the position jumps) are honoured so token
// positions refer to the original files. A marker is exactly what cpp
// writes, in column 1 and up to the end of its line: "# ", a decimal
// line number, one space and a double-quoted Go string literal as
// strconv.Unquote accepts it. Anything else starting with '#' in
// column 1, such as "#1 \"x\"", "# +5 \"x\"" or "# 5 \"x\" int y;", is
// reported as an unexpected preprocessor directive and its line
// skipped.
//
// All returns a fresh token slice; AppendAll appends to the caller's
// and keeps no reference to it, so a caller lexing many buffers can
// reuse one slice across them.
package lexer

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"flashmc/internal/cc/token"
)

// Error is a lexical error at a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer tokenizes a single logical source buffer.
type Lexer struct {
	src  string
	off  int
	file string
	line int
	col  int

	errs []error
}

// New returns a Lexer for src. The file name seeds token positions and
// may be overridden by cpp line markers embedded in src.
func New(file, src string) *Lexer {
	return &Lexer{src: src, file: file, line: 1, col: 1}
}

// Errors returns the lexical errors encountered so far.
func (l *Lexer) Errors() []error { return l.errs }

func (l *Lexer) errorf(pos token.Pos, format string, args ...any) {
	if len(l.errs) > 200 {
		return // bound error floods on binary/garbage input
	}
	l.errs = append(l.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
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

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isHex(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}
func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}
func isIdent(c byte) bool { return isIdentStart(c) || isDigit(c) }

// skipSpace consumes whitespace, comments, and cpp line markers.
func (l *Lexer) skipSpace() {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' || c == '\v':
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
				l.errorf(start, "unterminated block comment")
			}
		case c == '#' && l.col == 1:
			l.lineMarker()
		default:
			return
		}
	}
}

// lineMarker handles a '#' in column 1: a line marker written by cpp
// sets the position of the next line. Any other directive reaching the
// lexer is an error (cpp should have consumed it); it is reported and
// the line skipped.
func (l *Lexer) lineMarker() {
	pos := l.pos()
	end := strings.IndexByte(l.src[l.off:], '\n')
	if end < 0 {
		end = len(l.src)
	} else {
		end += l.off
	}
	text := l.src[l.off:end]
	if line, file, ok := parseMarker(text); ok {
		l.file, l.line, l.col = file, line, 1
		l.off = end
		if l.off < len(l.src) {
			l.off++ // consume '\n' without bumping line (marker sets it)
		}
		return
	}
	l.off = end
	l.col += len(text)
	l.errorf(pos, "unexpected preprocessor directive %q (cpp should have removed it)", strings.TrimSpace(text))
}

// parseMarker parses one line-marker line, "# <decimal> <quoted>". A
// name that strconv.Unquote would return unchanged is a substring of s.
func parseMarker(s string) (line int, file string, ok bool) {
	if len(s) < 2 || s[0] != '#' || s[1] != ' ' {
		return 0, "", false
	}
	i := 2
	for ; i < len(s) && isDigit(s[i]); i++ {
		d := int(s[i] - '0')
		if line > (math.MaxInt-d)/10 {
			return 0, "", false
		}
		line = line*10 + d
	}
	if i == 2 || i == len(s) || s[i] != ' ' {
		return 0, "", false
	}
	q := s[i+1:]
	if len(q) < 2 || q[0] != '"' || q[len(q)-1] != '"' {
		return 0, "", false
	}
	file = q[1 : len(q)-1]
	if strings.IndexByte(file, '\\') >= 0 || strings.IndexByte(file, '"') >= 0 || !utf8.ValidString(file) {
		var err error
		if file, err = strconv.Unquote(q); err != nil {
			return 0, "", false
		}
	}
	return line, file, true
}

// Next returns the next token. At end of input it returns an EOF token
// forever.
func (l *Lexer) Next() token.Token {
	l.skipSpace()
	pos := l.pos()
	if l.off >= len(l.src) {
		return token.Token{Kind: token.EOF, Pos: pos}
	}
	c := l.peek()
	switch {
	case isIdentStart(c):
		return l.ident(pos)
	case isDigit(c):
		return l.number(pos)
	case c == '.' && isDigit(l.peek2()):
		return l.number(pos)
	case c == '\'':
		return l.charLit(pos)
	case c == '"':
		return l.stringLit(pos)
	default:
		return l.operator(pos)
	}
}

// All tokenizes the remaining input, always ending with an EOF token.
func (l *Lexer) All() []token.Token { return l.AppendAll(nil) }

// AppendAll tokenizes the remaining input onto dst, always ending with
// an EOF token, and returns the extended slice. It keeps no reference
// to dst, so a caller lexing unit after unit can hand back the previous
// result truncated to zero length and reuse one buffer.
func (l *Lexer) AppendAll(dst []token.Token) []token.Token {
	// Preprocessed protocol C runs 2.3-2.6 bytes per token, so half the
	// input's length holds every token in one allocation.
	if need := len(dst) + (len(l.src)-l.off)/2 + 1; need > cap(dst) {
		dst = append(make([]token.Token, 0, need), dst...)
	}
	for {
		t := l.Next()
		dst = append(dst, t)
		if t.Kind == token.EOF {
			return dst
		}
	}
}

func (l *Lexer) ident(pos token.Pos) token.Token {
	start := l.off
	for l.off < len(l.src) && isIdent(l.peek()) {
		l.advance()
	}
	text := l.src[start:l.off]
	return token.Token{Kind: token.Lookup(text), Pos: pos, Text: text}
}

func (l *Lexer) number(pos token.Pos) token.Token {
	start := l.off
	kind := token.IntLit
	if l.peek() == '0' && (l.peek2() == 'x' || l.peek2() == 'X') {
		l.advance()
		l.advance()
		for l.off < len(l.src) && isHex(l.peek()) {
			l.advance()
		}
	} else {
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
		if l.peek() == '.' {
			kind = token.FloatLit
			l.advance()
			for l.off < len(l.src) && isDigit(l.peek()) {
				l.advance()
			}
		}
		if l.peek() == 'e' || l.peek() == 'E' {
			next := l.peek2()
			if isDigit(next) || next == '+' || next == '-' {
				kind = token.FloatLit
				l.advance()
				if l.peek() == '+' || l.peek() == '-' {
					l.advance()
				}
				for l.off < len(l.src) && isDigit(l.peek()) {
					l.advance()
				}
			}
		}
	}
	// Suffixes: u/U/l/L for ints, f/F/l/L for floats.
	for l.off < len(l.src) {
		switch l.peek() {
		case 'u', 'U', 'l', 'L':
			l.advance()
			continue
		case 'f', 'F':
			if kind == token.FloatLit {
				l.advance()
				continue
			}
		}
		break
	}
	return token.Token{Kind: kind, Pos: pos, Text: l.src[start:l.off]}
}

func (l *Lexer) escape(pos token.Pos) {
	l.advance() // backslash
	if l.off >= len(l.src) {
		l.errorf(pos, "unterminated escape")
		return
	}
	c := l.advance()
	switch c {
	case 'n', 't', 'r', '0', '\\', '\'', '"', 'a', 'b', 'f', 'v', '?':
	case 'x':
		for l.off < len(l.src) && isHex(l.peek()) {
			l.advance()
		}
	default:
		if c >= '1' && c <= '7' { // octal
			for l.off < len(l.src) && l.peek() >= '0' && l.peek() <= '7' {
				l.advance()
			}
		} else {
			l.errorf(pos, "unknown escape \\%c", c)
		}
	}
}

func (l *Lexer) charLit(pos token.Pos) token.Token {
	start := l.off
	l.advance() // opening quote
	for l.off < len(l.src) && l.peek() != '\'' && l.peek() != '\n' {
		if l.peek() == '\\' {
			l.escape(pos)
		} else {
			l.advance()
		}
	}
	if l.peek() != '\'' {
		l.errorf(pos, "unterminated character literal")
	} else {
		l.advance()
	}
	return token.Token{Kind: token.CharLit, Pos: pos, Text: l.src[start:l.off]}
}

func (l *Lexer) stringLit(pos token.Pos) token.Token {
	start := l.off
	l.advance() // opening quote
	for l.off < len(l.src) && l.peek() != '"' && l.peek() != '\n' {
		if l.peek() == '\\' {
			l.escape(pos)
		} else {
			l.advance()
		}
	}
	if l.peek() != '"' {
		l.errorf(pos, "unterminated string literal")
	} else {
		l.advance()
	}
	return token.Token{Kind: token.StringLit, Pos: pos, Text: l.src[start:l.off]}
}

// operator tables, longest match first.
var ops3 = map[string]token.Kind{
	"<<=": token.ShlAssign,
	">>=": token.ShrAssign,
	"...": token.Ellipsis,
}

var ops2 = map[string]token.Kind{
	"->": token.Arrow,
	"++": token.Inc,
	"--": token.Dec,
	"<<": token.Shl,
	">>": token.Shr,
	"<=": token.LessEq,
	">=": token.GreaterEq,
	"==": token.Eq,
	"!=": token.NotEq,
	"&&": token.LogicalAnd,
	"||": token.LogicalOr,
	"+=": token.AddAssign,
	"-=": token.SubAssign,
	"*=": token.MulAssign,
	"/=": token.DivAssign,
	"%=": token.ModAssign,
	"&=": token.AndAssign,
	"|=": token.OrAssign,
	"^=": token.XorAssign,
}

var ops1 = map[byte]token.Kind{
	'(': token.LParen, ')': token.RParen,
	'{': token.LBrace, '}': token.RBrace,
	'[': token.LBracket, ']': token.RBracket,
	';': token.Semi, ',': token.Comma, '.': token.Dot,
	'=': token.Assign, '?': token.Question, ':': token.Colon,
	'|': token.BitOr, '^': token.BitXor, '&': token.BitAnd,
	'<': token.Less, '>': token.Greater,
	'+': token.Add, '-': token.Sub, '*': token.Star,
	'/': token.Div, '%': token.Mod,
	'!': token.Not, '~': token.Tilde,
}

func (l *Lexer) operator(pos token.Pos) token.Token {
	if l.off+3 <= len(l.src) {
		if k, ok := ops3[l.src[l.off:l.off+3]]; ok {
			text := l.src[l.off : l.off+3]
			l.advance()
			l.advance()
			l.advance()
			return token.Token{Kind: k, Pos: pos, Text: text}
		}
	}
	if l.off+2 <= len(l.src) {
		if k, ok := ops2[l.src[l.off:l.off+2]]; ok {
			text := l.src[l.off : l.off+2]
			l.advance()
			l.advance()
			return token.Token{Kind: k, Pos: pos, Text: text}
		}
	}
	c := l.advance()
	if k, ok := ops1[c]; ok {
		return token.Token{Kind: k, Pos: pos, Text: l.src[l.off-1 : l.off]}
	}
	l.errorf(pos, "illegal character %q", c)
	// Return something the parser can resynchronize on.
	return token.Token{Kind: token.Semi, Pos: pos, Text: string(c)}
}
