package main

import (
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"strings"

	"flashmc/internal/cc/ast"
	"flashmc/internal/core"
	"flashmc/internal/flash"
	"flashmc/internal/flashgen"
)

// site is a source line an edit may append a statement to: the first
// line of an expression statement inside a function body.
type site struct {
	file string
	line int // 1-based
}

// editSites lists the lines of prog's protocol files that hold a
// complete one-line expression statement inside a function body.
// Appending a no-op statement there moves no token of the line or of
// any later line, so exactly one function's fingerprint changes.
//
// Excluded are the lines where one more statement changes the
// execution-restriction checker's reports, because that checker looks
// at statement order: the first two statements of a body
// (HANDLER_DEFS() and the prologue must open it, NO_STACK_DECL() must
// be among the first three), any HANDLER_DEFS() line, and SET_STACKPTR()
// lines (a handler call must follow at once). So are lines with a //
// comment, which would swallow the appended statement.
func editSites(prog *core.Program, g *flashgen.Protocol) []site {
	order := map[site]bool{} // lines whose statements the exec checker orders
	var cands []site
	for _, fn := range prog.Fns {
		for i, st := range fn.Body.Stmts {
			if i < 2 {
				order[site{st.Pos().File, st.Pos().Line}] = true
			}
		}
		ast.Inspect(fn, func(n ast.Node) bool {
			st, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			s := site{st.Pos().File, st.Pos().Line}
			if call, ok := st.X.(*ast.Call); ok {
				if id, ok := call.Fun.(*ast.Ident); ok &&
					(id.Name == flash.MacroHandlerDefs || id.Name == flash.MacroSetStackPtr) {
					order[s] = true
				}
			}
			cands = append(cands, s)
			return true
		})
	}

	lines := map[string][]string{}
	seen := map[site]bool{}
	var out []site
	for _, s := range cands {
		text, ok := g.Files[s.file]
		if !ok || seen[s] || order[s] {
			continue
		}
		seen[s] = true
		ls, ok := lines[s.file]
		if !ok {
			ls = strings.Split(text, "\n")
			lines[s.file] = ls
		}
		if s.line < 1 || s.line > len(ls) {
			continue
		}
		if ln := ls[s.line-1]; strings.HasSuffix(strings.TrimSpace(ln), ";") && !strings.Contains(ln, "//") {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].file != out[j].file {
			return out[i].file < out[j].file
		}
		return out[i].line < out[j].line
	})
	return out
}

// edit appends ` (void)<literal>;` to one site of one protocol.
type edit struct {
	proto   int
	site    site
	literal int
}

func (e edit) String() string {
	return fmt.Sprintf("%s:%d (void)%d;", e.site.file, e.site.line, e.literal)
}

// apply returns files with e applied; files is not modified.
func (e edit) apply(files map[string]string) map[string]string {
	out := maps.Clone(files)
	ls := strings.Split(files[e.site.file], "\n")
	ls[e.site.line-1] += fmt.Sprintf(" (void)%d;", e.literal)
	out[e.site.file] = strings.Join(ls, "\n")
	return out
}

// schedule is a workload's seeded request sequence. Requests rotate
// through the protocols in cycles that visit each once, in a fresh
// seeded order per cycle; edit_loop additionally draws one edit site
// per step. The same seed yields the same sequence.
type schedule struct {
	rng   *rand.Rand
	n     int
	cycle []int
	step  int
}

func newSchedule(seed int64, protocols int) *schedule {
	return &schedule{rng: rand.New(rand.NewSource(seed)), n: protocols}
}

// next returns the protocol index of the next request.
func (s *schedule) next() int {
	if len(s.cycle) == 0 {
		s.cycle = s.rng.Perm(s.n)
	}
	i := s.cycle[0]
	s.cycle = s.cycle[1:]
	s.step++
	return i
}

// nextEdit returns the next request as an edit of a pristine protocol.
// The literal is the step number, so every step's edited function is
// new to the depot and each step misses on exactly one function.
func (s *schedule) nextEdit(sites [][]site) edit {
	i := s.next()
	return edit{proto: i, site: sites[i][s.rng.Intn(len(sites[i]))], literal: s.step}
}
