package cpp

import (
	"errors"
	"strconv"
	"strings"

	"flashmc/internal/cc/lexer"
	"flashmc/internal/cc/parser"
)

// ppTok is a minimal preprocessing token: enough structure for macro
// expansion; the real lexer runs later on the expanded text.
type ppTok struct {
	kind        ppKind
	text        string
	spaceBefore bool
	noExpand    map[string]bool // hide set: macros not expandable in this token
}

type ppKind int

const (
	tkIdent ppKind = iota
	tkNumber
	tkString
	tkChar
	tkPunct
)

func isIdentB(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// scanAll tokenizes a single logical line into preprocessing tokens.
func scanAll(s string) []ppTok { return scan(nil, s) }

// scan appends the preprocessing tokens of one logical line to out.
func scan(out []ppTok, s string) []ppTok {
	i := 0
	space := false
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			space = true
			i++
		case c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'):
			j := i
			for j < len(s) && isIdentB(s[j]) {
				j++
			}
			out = append(out, ppTok{kind: tkIdent, text: s[i:j], spaceBefore: space})
			space = false
			i = j
		case c >= '0' && c <= '9':
			j := i
			for j < len(s) && (isIdentB(s[j]) || s[j] == '.' ||
				((s[j] == '+' || s[j] == '-') && j > i && (s[j-1] == 'e' || s[j-1] == 'E'))) {
				j++
			}
			out = append(out, ppTok{kind: tkNumber, text: s[i:j], spaceBefore: space})
			space = false
			i = j
		case c == '"' || c == '\'':
			j := i + 1
			for j < len(s) && s[j] != c {
				if s[j] == '\\' && j+1 < len(s) {
					j++
				}
				j++
			}
			if j < len(s) {
				j++
			}
			kind := tkString
			if c == '\'' {
				kind = tkChar
			}
			out = append(out, ppTok{kind: kind, text: s[i:j], spaceBefore: space})
			space = false
			i = j
		default:
			// Multi-char puncts that matter to cpp: ## and the usual ops.
			n := 1
			if i+1 < len(s) {
				two := s[i : i+2]
				switch two {
				case "##", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
					"->", "++", "--", "+=", "-=", "*=", "/=", "%=", "&=",
					"|=", "^=":
					n = 2
				}
				if i+2 < len(s) && (s[i:i+3] == "<<=" || s[i:i+3] == ">>=" || s[i:i+3] == "...") {
					n = 3
				}
			}
			out = append(out, ppTok{kind: tkPunct, text: s[i : i+n], spaceBefore: space})
			space = false
			i += n
		}
	}
	return out
}

// render writes tokens back as text to b, inserting spaces where needed
// to keep adjacent tokens from gluing into different tokens.
func render(b *strings.Builder, toks []ppTok) {
	for i, t := range toks {
		if i > 0 && needSpace(toks[i-1], t) {
			b.WriteByte(' ')
		}
		b.WriteString(t.text)
	}
}

func needSpace(a, b ppTok) bool {
	if b.spaceBefore {
		return true
	}
	if a.text == "" || b.text == "" {
		return false
	}
	al, bf := a.text[len(a.text)-1], b.text[0]
	// identifier/number adjacency
	if isIdentB(al) && isIdentB(bf) {
		return true
	}
	// Operator gluing hazards: separate puncts only when concatenating
	// their boundary characters would lex as a longer operator.
	if a.kind == tkPunct && b.kind == tkPunct && glueHazard[string(al)+string(bf)] {
		return true
	}
	return false
}

// glueHazard lists character pairs that would fuse into a different
// operator if rendered without a separating space.
var glueHazard = map[string]bool{
	"++": true, "--": true, "<<": true, ">>": true, "&&": true,
	"||": true, "==": true, "<=": true, ">=": true, "!=": true,
	"+=": true, "-=": true, "*=": true, "/=": true, "%=": true,
	"&=": true, "|=": true, "^=": true, "->": true, "//": true,
	"/*": true, "*/": true, "##": true, "..": true,
}

// maxExpansion caps the tokens macro replacement may produce for one
// logical line (or one #if expression). The widest line of the
// generated protocols needs a few dozen; a chain of doubling macros
// reaches the cap in 16 steps and stops there with one error instead
// of growing without bound.
const maxExpansion = 1 << 16

// overBudget reports whether the current line's macro replacement
// went past maxExpansion, and if so reports it.
func (p *Preprocessor) overBudget(file string, line int) bool {
	if p.spent <= maxExpansion {
		return false
	}
	p.errorf(file, line, "macro expansion exceeds %d tokens", maxExpansion)
	return true
}

// expandLine macro-expands one logical source line and writes it to
// the output as one line; a line over the expansion budget is written
// empty.
func (p *Preprocessor) expandLine(file string, line int, text string) {
	p.scanBuf = scan(p.scanBuf[:0], text)
	p.spent = 0
	p.expBuf = p.expand(p.expBuf[:0], file, line, p.scanBuf)
	if p.overBudget(file, line) {
		p.expBuf = p.expBuf[:0]
	}
	render(&p.out, p.expBuf)
	p.out.WriteByte('\n')
	p.outLine++
	// A line that expands to something starting with '#' may read as a
	// line marker, so the next line's position is no longer known.
	if len(p.expBuf) > 0 && strings.HasPrefix(p.expBuf[0].text, "#") {
		p.outLine = 0
	}
}

// expand appends to out the result of macro replacement over toks,
// repeated until no replaceable macro invocation remains. Recursion is
// prevented with per-token hide sets (a simplification of Prosser's
// algorithm sufficient in practice). It stops once the line is over
// its expansion budget.
func (p *Preprocessor) expand(out []ppTok, file string, line int, toks []ppTok) []ppTok {
	i := 0
	for i < len(toks) && p.spent <= maxExpansion {
		t := toks[i]
		if t.kind != tkIdent {
			out = append(out, t)
			i++
			continue
		}
		m := p.macros[t.text]
		if m == nil || (t.noExpand != nil && t.noExpand[t.text]) || p.KeepMacros[t.text] {
			out = append(out, t)
			i++
			continue
		}
		if !m.FuncLike {
			rep := p.substitute(file, line, m, nil)
			rep = hide(rep, m.Name, t.noExpand)
			rep = p.expand(nil, file, line, rep)
			if len(rep) > 0 {
				rep[0].spaceBefore = t.spaceBefore
			}
			out = append(out, rep...)
			i++
			continue
		}
		// Function-like: need '(' next.
		if i+1 >= len(toks) || toks[i+1].text != "(" {
			out = append(out, t)
			i++
			continue
		}
		args, next, ok := collectArgs(toks, i+1)
		if !ok {
			p.errorf(file, line, "unterminated invocation of macro %s", m.Name)
			out = append(out, t)
			i++
			continue
		}
		if len(args) == 1 && len(args[0]) == 0 && len(m.Params) == 0 {
			args = nil
		}
		if len(args) != len(m.Params) {
			p.errorf(file, line, "macro %s expects %d arguments, got %d", m.Name, len(m.Params), len(args))
		}
		rep := p.substitute(file, line, m, args)
		rep = hide(rep, m.Name, t.noExpand)
		rep = p.expand(nil, file, line, rep)
		if len(rep) > 0 {
			rep[0].spaceBefore = t.spaceBefore
		}
		out = append(out, rep...)
		i = next
	}
	return out
}

// hide adds name (plus inherited hide set) to every token's hide set.
func hide(toks []ppTok, name string, inherited map[string]bool) []ppTok {
	out := make([]ppTok, len(toks))
	for i, t := range toks {
		ns := make(map[string]bool, len(t.noExpand)+len(inherited)+1)
		for k := range t.noExpand {
			ns[k] = true
		}
		for k := range inherited {
			ns[k] = true
		}
		ns[name] = true
		t.noExpand = ns
		out[i] = t
	}
	return out
}

// collectArgs parses a macro argument list starting at the '(' token at
// index open. It returns the arguments, the index just past the ')',
// and whether the list was closed.
func collectArgs(toks []ppTok, open int) (args [][]ppTok, next int, ok bool) {
	depth := 0
	var cur []ppTok
	for i := open; i < len(toks); i++ {
		t := toks[i]
		switch t.text {
		case "(":
			depth++
			if depth > 1 {
				cur = append(cur, t)
			}
		case ")":
			depth--
			if depth == 0 {
				args = append(args, cur)
				return args, i + 1, true
			}
			cur = append(cur, t)
		case ",":
			if depth == 1 {
				args = append(args, cur)
				cur = nil
			} else {
				cur = append(cur, t)
			}
		default:
			if depth >= 1 {
				cur = append(cur, t)
			}
		}
	}
	return nil, open, false
}

// substitute replaces parameters in the macro body with (pre-expanded)
// arguments, handling # stringize and ## paste. Its result, and each
// stringized argument, is charged to the line's expansion budget, and
// it stops early once the budget is spent.
func (p *Preprocessor) substitute(file string, line int, m *Macro, args [][]ppTok) []ppTok {
	paramIdx := func(name string) int {
		for i, p := range m.Params {
			if p == name {
				return i
			}
		}
		return -1
	}
	argFor := func(i int) []ppTok {
		if i < len(args) {
			return args[i]
		}
		return nil
	}

	var out []ppTok
	body := m.Body
	for i := 0; i < len(body) && p.spent+len(out) <= maxExpansion; i++ {
		t := body[i]
		// # param -> string literal
		if t.text == "#" && m.FuncLike && i+1 < len(body) && body[i+1].kind == tkIdent {
			if pi := paramIdx(body[i+1].text); pi >= 0 {
				var b strings.Builder
				render(&b, argFor(pi))
				p.spent += len(argFor(pi))
				out = append(out, ppTok{kind: tkString,
					text:        strconv.Quote(b.String()),
					spaceBefore: t.spaceBefore})
				i++
				continue
			}
		}
		// token ## token
		if i+1 < len(body) && body[i+1].text == "##" {
			left := expandParam(t, paramIdx, argFor)
			for i+1 < len(body) && body[i+1].text == "##" {
				if i+2 >= len(body) {
					p.errorf(file, line, "## at end of macro %s", m.Name)
					i++
					break
				}
				right := expandParam(body[i+2], paramIdx, argFor)
				left = paste(left, right)
				i += 2
			}
			out = append(out, left...)
			continue
		}
		if t.kind == tkIdent {
			if pi := paramIdx(t.text); pi >= 0 {
				// Arguments are macro-expanded before substitution
				// (except for #/## operands, handled above).
				rep := p.expand(nil, file, line, argFor(pi))
				if len(rep) > 0 {
					rep[0].spaceBefore = t.spaceBefore
				}
				out = append(out, rep...)
				continue
			}
		}
		out = append(out, t)
	}
	p.spent += len(out)
	return out
}

// expandParam returns the raw (unexpanded) tokens for a parameter
// reference, or the token itself.
func expandParam(t ppTok, paramIdx func(string) int, argFor func(int) []ppTok) []ppTok {
	if t.kind == tkIdent {
		if pi := paramIdx(t.text); pi >= 0 {
			arg := argFor(pi)
			cp := make([]ppTok, len(arg))
			copy(cp, arg)
			return cp
		}
	}
	return []ppTok{t}
}

// paste glues the last token of left to the first token of right.
func paste(left, right []ppTok) []ppTok {
	if len(left) == 0 {
		return right
	}
	if len(right) == 0 {
		return left
	}
	glued := left[len(left)-1].text + right[0].text
	toks := scanAll(glued)
	out := append([]ppTok{}, left[:len(left)-1]...)
	out = append(out, toks...)
	out = append(out, right[1:]...)
	return out
}

// evalCond evaluates a #if/#elif expression as C does: defined X and
// defined(X) become 1 or 0, macros expand, and every identifier still
// left becomes 0 (keywords too: preprocessing tokens have none). The
// result parses with the C expression grammar and folds with the
// parser's constant folder, in int64 arithmetic.
func (p *Preprocessor) evalCond(file string, line int, expr string) bool {
	toks := scanAll(expr)
	var pre []ppTok
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		if t.kind == tkIdent && t.text == "defined" {
			name := ""
			if i+1 < len(toks) && toks[i+1].kind == tkIdent {
				name = toks[i+1].text
				i++
			} else if i+3 < len(toks) && toks[i+1].text == "(" && toks[i+2].kind == tkIdent && toks[i+3].text == ")" {
				name = toks[i+2].text
				i += 3
			} else {
				p.errorf(file, line, "malformed defined()")
				return false
			}
			val := "0"
			if p.macros[name] != nil {
				val = "1"
			}
			pre = append(pre, ppTok{kind: tkNumber, text: val, spaceBefore: t.spaceBefore})
			continue
		}
		pre = append(pre, t)
	}
	p.spent = 0
	expanded := p.expand(nil, file, line, pre)
	if p.overBudget(file, line) {
		return false
	}
	for i, t := range expanded {
		if t.kind == tkIdent {
			expanded[i] = ppTok{kind: tkNumber, text: "0", spaceBefore: t.spaceBefore}
		}
	}
	var b strings.Builder
	render(&b, expanded)
	e, err := parser.ParseExprPattern(b.String(), parser.PatternContext{})
	if err != nil {
		p.errorf(file, line, "bad #if expression: %s", withoutPos(err))
		return false
	}
	v, ok := parser.ConstValue(e, nil)
	if !ok {
		p.errorf(file, line, "bad #if expression: not an integer constant")
		return false
	}
	return v != 0
}

// withoutPos returns a lexer or parser error's message without its
// position, which is in the rendered #if text, not the source file.
func withoutPos(err error) string {
	var pe *parser.Error
	var le *lexer.Error
	switch {
	case errors.As(err, &pe):
		return pe.Msg
	case errors.As(err, &le):
		return le.Msg
	}
	return err.Error()
}
