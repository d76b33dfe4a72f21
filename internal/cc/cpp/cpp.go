// Package cpp implements the C preprocessor subset needed for FLASH
// protocol code: #include with search paths, object- and function-like
// #define (including # stringize and ## paste), #undef, the full
// conditional family (#if/#ifdef/#ifndef/#elif/#else/#endif) with
// defined(), #error, and #pragma (ignored). #if expressions parse with
// package parser's C expression grammar and fold with its constant
// folder, so cpp has no expression grammar of its own.
//
// Hostile input ends with an error, not a hang: includes nest at most
// maxIncludeDepth deep, after which the rest of the Process includes
// nothing, and macro replacement makes at most maxExpansion tokens for
// one logical line.
//
// Output is a single preprocessed text buffer, one line per emitted
// logical source line, in which positions are recorded as line markers
//
//	# <line> "<file>"
//
// (the file name quoted as strconv.Quote writes it), which package
// lexer interprets, so downstream positions refer to the original
// files. Markers are written only where the position jumps: at the
// start of each file, after an #include returns, and before a line
// whose number is not the previous output line's plus one (after a
// directive, a skipped #if block or a continuation). Every other line
// is where the lexer's own line count puts it.
//
// Files are read through the Source interface so corpora can live
// purely in memory (package flashgen) or on disk (cmd/mcheck).
package cpp

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// Source resolves include files.
type Source interface {
	// ReadFile returns the contents of the named file.
	ReadFile(name string) (string, error)
}

// OSSource reads files from the operating system, rooted at Dir (or
// the process working directory if Dir is empty).
type OSSource struct{ Dir string }

// ReadFile implements Source.
func (s OSSource) ReadFile(name string) (string, error) {
	if s.Dir != "" && !filepath.IsAbs(name) {
		name = filepath.Join(s.Dir, name)
	}
	b, err := os.ReadFile(name)
	return string(b), err
}

// MapSource serves files from an in-memory map of name -> contents.
type MapSource map[string]string

// ReadFile implements Source.
func (m MapSource) ReadFile(name string) (string, error) {
	if s, ok := m[name]; ok {
		return s, nil
	}
	return "", fmt.Errorf("file %q not found", name)
}

// Layered combines sources: each lookup tries them in order. It lets
// the command-line tools overlay the built-in FLASH header under
// on-disk protocol sources.
func Layered(srcs ...Source) Source { return layered(srcs) }

type layered []Source

// ReadFile implements Source.
func (l layered) ReadFile(name string) (string, error) {
	var firstErr error
	for _, s := range l {
		text, err := s.ReadFile(name)
		if err == nil {
			return text, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("file %q not found", name)
	}
	return "", firstErr
}

// Error is a preprocessing error with its source location.
type Error struct {
	File string
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg) }

// Macro is a preprocessor macro definition.
type Macro struct {
	Name     string
	FuncLike bool
	Params   []string
	Body     []ppTok
}

// Preprocessor holds preprocessing state across files.
type Preprocessor struct {
	src         Source
	includeDirs []string
	macros      map[string]*Macro
	out         strings.Builder
	errs        []error
	depth       int

	// outFile and outLine are the position the lexer will give the
	// next output line; a marker is written only where that is wrong.
	outFile string
	outLine int

	// Buffers reused across lines: a marker's text, and one logical
	// line's scanned and top-level expanded tokens.
	markBuf []byte
	scanBuf []ppTok
	expBuf  []ppTok

	// spent counts the tokens macro replacement has produced for the
	// current logical line (see maxExpansion).
	spent int
	// includeOff is set once an #include goes too deep; the rest of
	// the Process includes nothing, so a cycle that includes several
	// files twice over ends after one path instead of all of them.
	includeOff bool

	// KeepMacros lists function-like macro names that must NOT be
	// expanded even if defined; the FLASH checkers pattern-match their
	// invocations (the paper's xg++ workaround, §11).
	KeepMacros map[string]bool
}

// New returns a Preprocessor reading includes from src and the given
// search directories (used for both "..." and <...> includes; for
// quoted includes the including file's directory is tried first).
func New(src Source, includeDirs ...string) *Preprocessor {
	return &Preprocessor{
		src:         src,
		includeDirs: includeDirs,
		macros:      make(map[string]*Macro),
		KeepMacros:  make(map[string]bool),
	}
}

// Errors returns all errors accumulated so far.
func (p *Preprocessor) Errors() []error { return p.errs }

func (p *Preprocessor) errorf(file string, line int, format string, args ...any) {
	p.errs = append(p.errs, &Error{File: file, Line: line, Msg: fmt.Sprintf(format, args...)})
}

// Process preprocesses the named top-level file and returns the
// preprocessed text. Errors are available via Errors; processing
// continues past recoverable errors.
func (p *Preprocessor) Process(name string) string {
	text, err := p.src.ReadFile(name)
	if err != nil {
		p.errorf(name, 0, "cannot read: %v", err)
		return ""
	}
	return p.ProcessText(name, text)
}

// ProcessText preprocesses the given text as though it were file name.
//
// The output is presized to 1.25 times the input. On the generated
// protocols a handler file's output is 0.95-1.04 times its input (the
// included header adds ~2 KB, comments and continuations drop more),
// so one allocation holds it; a file of a few KB, where the header
// dominates, grows once more.
func (p *Preprocessor) ProcessText(name, text string) string {
	p.out.Reset()
	p.out.Grow(len(text) + len(text)/4)
	p.includeOff = false
	p.processText(name, text)
	return p.out.String()
}

const maxIncludeDepth = 64

// condState tracks one #if nesting level.
type condState struct {
	taken    bool // some branch at this level has been taken
	active   bool // current branch is active
	sawElse  bool
	wasLive  bool // enclosing context was active when #if was seen
	openLine int
}

func (p *Preprocessor) processText(file, text string) {
	p.depth++
	defer func() { p.depth-- }()

	p.marker(1, file)
	lines := splitLogicalLines(text)
	var conds []condState

	live := func() bool {
		for _, c := range conds {
			if !c.active {
				return false
			}
		}
		return true
	}

	for _, ln := range lines {
		trim := strings.TrimSpace(ln.text)
		if strings.HasPrefix(trim, "#") {
			p.directive(file, ln, trim, &conds, live)
			continue
		}
		if !live() {
			continue
		}
		if ln.line != p.outLine || file != p.outFile {
			p.marker(ln.line, file)
		}
		p.expandLine(file, ln.line, ln.text)
	}
	for _, c := range conds {
		p.errorf(file, c.openLine, "unterminated #if")
	}
}

// marker writes a line marker giving the next output line the
// position (file, line).
func (p *Preprocessor) marker(line int, file string) {
	b := append(p.markBuf[:0], "# "...)
	b = strconv.AppendInt(b, int64(line), 10)
	b = append(b, ' ')
	b = strconv.AppendQuote(b, file)
	b = append(b, '\n')
	p.out.Write(b)
	p.markBuf = b
	p.outFile, p.outLine = file, line
}

type logicalLine struct {
	line int // starting physical line
	text string
}

// splitLogicalLines splits text into lines, joining backslash
// continuations and stripping comments that could hide directives.
// It walks the text with strings.Cut rather than splitting it, so the
// only allocations are the result and the joined continuations.
func splitLogicalLines(text string) []logicalLine {
	text = stripBlockComments(text)
	out := make([]logicalLine, 0, strings.Count(text, "\n")+1)
	for n := 1; ; {
		start := n
		line, rest, more := strings.Cut(text, "\n")
		n++
		for more {
			head, ok := continued(line)
			if !ok {
				break
			}
			var next string
			next, rest, more = strings.Cut(rest, "\n")
			line = head + next
			n++
		}
		out = append(out, logicalLine{line: start, text: line})
		if !more {
			return out
		}
		text = rest
	}
}

// continued reports whether line ends in a backslash continuation,
// with or without a CRLF line ending's '\r', and returns the line
// without it.
func continued(line string) (string, bool) {
	head := strings.TrimSuffix(line, "\r")
	if !strings.HasSuffix(head, "\\") {
		return line, false
	}
	return head[:len(head)-1], true
}

// stripBlockComments replaces /*...*/ comments with spaces (preserving
// newlines so line numbers stay accurate) and removes // comments.
// String and character literals are respected.
func stripBlockComments(text string) string {
	var b strings.Builder
	b.Grow(len(text))
	i := 0
	for i < len(text) {
		c := text[i]
		switch {
		case c == '/' && i+1 < len(text) && text[i+1] == '*':
			i += 2
			b.WriteString("  ")
			for i < len(text) {
				if text[i] == '*' && i+1 < len(text) && text[i+1] == '/' {
					i += 2
					b.WriteString("  ")
					break
				}
				if text[i] == '\n' {
					b.WriteByte('\n')
				} else {
					b.WriteByte(' ')
				}
				i++
			}
		case c == '/' && i+1 < len(text) && text[i+1] == '/':
			for i < len(text) && text[i] != '\n' {
				i++
			}
		case c == '"' || c == '\'':
			quote := c
			b.WriteByte(c)
			i++
			for i < len(text) && text[i] != quote && text[i] != '\n' {
				if text[i] == '\\' && i+1 < len(text) {
					b.WriteByte(text[i])
					i++
				}
				b.WriteByte(text[i])
				i++
			}
			if i < len(text) {
				b.WriteByte(text[i])
				i++
			}
		default:
			b.WriteByte(c)
			i++
		}
	}
	return b.String()
}

func (p *Preprocessor) directive(file string, ln logicalLine, trim string, conds *[]condState, live func() bool) {
	body := strings.TrimSpace(trim[1:])
	name := body
	rest := ""
	if i := strings.IndexAny(body, " \t"); i >= 0 {
		name, rest = body[:i], strings.TrimSpace(body[i+1:])
	}
	switch name {
	case "if", "ifdef", "ifndef":
		wasLive := live()
		active := false
		switch {
		case !wasLive:
		case name == "if":
			active = p.evalCond(file, ln.line, rest)
		case !isMacroName(rest):
			p.errorf(file, ln.line, "#%s expects one macro name, got %q", name, rest)
		default:
			active = (p.macros[rest] != nil) == (name == "ifdef")
		}
		*conds = append(*conds, condState{taken: active, active: active, wasLive: wasLive, openLine: ln.line})
	case "elif":
		if len(*conds) == 0 {
			p.errorf(file, ln.line, "#elif without #if")
			return
		}
		c := &(*conds)[len(*conds)-1]
		if c.sawElse {
			p.errorf(file, ln.line, "#elif after #else")
			return
		}
		if c.wasLive && !c.taken && p.evalCond(file, ln.line, rest) {
			c.active, c.taken = true, true
		} else {
			c.active = false
		}
	case "else":
		if len(*conds) == 0 {
			p.errorf(file, ln.line, "#else without #if")
			return
		}
		c := &(*conds)[len(*conds)-1]
		if c.sawElse {
			p.errorf(file, ln.line, "duplicate #else")
			return
		}
		c.sawElse = true
		c.active = c.wasLive && !c.taken
		c.taken = true
	case "endif":
		if len(*conds) == 0 {
			p.errorf(file, ln.line, "#endif without #if")
			return
		}
		*conds = (*conds)[:len(*conds)-1]
	case "include":
		if live() {
			p.include(file, ln.line, rest)
		}
	case "define":
		if live() {
			p.define(file, ln.line, rest)
		}
	case "undef":
		if live() {
			delete(p.macros, strings.TrimSpace(rest))
		}
	case "error":
		if live() {
			p.errorf(file, ln.line, "#error %s", rest)
		}
	case "pragma", "line":
		// ignored
	case "":
		// null directive
	default:
		if live() {
			p.errorf(file, ln.line, "unknown directive #%s", name)
		}
	}
}

func (p *Preprocessor) include(file string, line int, arg string) {
	if p.includeOff {
		return
	}
	if p.depth >= maxIncludeDepth {
		p.errorf(file, line, "include depth exceeds %d (cycle?)", maxIncludeDepth)
		p.includeOff = true
		return
	}
	arg = strings.TrimSpace(arg)
	var name string
	var quoted bool
	switch {
	case len(arg) >= 2 && arg[0] == '"':
		end := strings.IndexByte(arg[1:], '"')
		if end < 0 {
			p.errorf(file, line, "malformed #include %s", arg)
			return
		}
		name, quoted = arg[1:1+end], true
	case len(arg) >= 2 && arg[0] == '<':
		end := strings.IndexByte(arg, '>')
		if end < 0 {
			p.errorf(file, line, "malformed #include %s", arg)
			return
		}
		name = arg[1:end]
	default:
		p.errorf(file, line, "malformed #include %s", arg)
		return
	}

	var candidates []string
	if quoted {
		candidates = append(candidates, filepath.Join(filepath.Dir(file), name))
	}
	for _, d := range p.includeDirs {
		candidates = append(candidates, filepath.Join(d, name))
	}
	candidates = append(candidates, name)
	for _, c := range candidates {
		text, err := p.src.ReadFile(c)
		if err == nil {
			p.processText(c, text)
			p.marker(line+1, file)
			return
		}
	}
	p.errorf(file, line, "include file %q not found", name)
}

// isMacroName reports whether s is exactly one identifier.
func isMacroName(s string) bool {
	toks := scanAll(s)
	return len(toks) == 1 && toks[0].kind == tkIdent
}

func (p *Preprocessor) define(file string, line int, rest string) {
	toks := scanAll(rest)
	if len(toks) == 0 || toks[0].kind != tkIdent {
		p.errorf(file, line, "malformed #define")
		return
	}
	m := &Macro{Name: toks[0].text}
	i := 1
	// Function-like only if '(' immediately follows the name (no space);
	// scanAll records adjacency.
	if i < len(toks) && toks[i].text == "(" && !toks[i].spaceBefore {
		m.FuncLike = true
		i++
		for i < len(toks) && toks[i].text != ")" {
			switch t := toks[i]; {
			case t.kind == tkIdent && slices.Contains(m.Params, t.text):
				p.errorf(file, line, "duplicate macro parameter %s", t.text)
				return
			case t.kind == tkIdent:
				m.Params = append(m.Params, t.text)
			case t.text != ",":
				p.errorf(file, line, "malformed macro parameter list")
				return
			}
			i++
		}
		if i >= len(toks) {
			p.errorf(file, line, "unterminated macro parameter list")
			return
		}
		i++ // ')'
	}
	m.Body = toks[i:]
	p.macros[m.Name] = m
}
