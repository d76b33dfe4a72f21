package checkers

import (
	_ "embed"
	"strings"

	"flashmc/internal/cc/ast"
	"flashmc/internal/core"
	"flashmc/internal/engine"
	"flashmc/internal/flash"
)

//go:embed bufmgmt.go
var bufmgmtSource string

// bufferMgmt is the §6 buffer-management checker. It transliterates
// the paper's four rules:
//
//  1. hardware handlers begin with a data buffer they must free;
//  2. software handlers begin without one and must allocate before
//     sending;
//  3. after a free, no send until another allocation;
//  4. once allocated, the buffer must be freed before another
//     allocation.
//
// Frees can be explicit (DEC_DB_REF) or implied by calling a routine
// in the spec's buffer-free table; uses are sends or calls to routines
// in the buffer-use table. has_buffer()/no_free_needed() annotation
// calls suppress warnings, and the spec's conditional-free routines
// get branch-sensitive treatment (the paper's 12-line refinement that
// removed over twenty useless annotations).
type bufferMgmt struct {
	correlate bool
}

// NewBufferMgmt returns the buffer-management checker with the
// paper's configuration (no infeasible-path pruning).
func NewBufferMgmt() Checker { return &bufferMgmt{} }

// NewBufferMgmtPruned returns the ablation variant with the engine's
// correlated-branch pruner enabled; it removes the duplicated-condition
// class of useless annotations (DESIGN.md §6.2).
func NewBufferMgmtPruned() Checker { return &bufferMgmt{correlate: true} }

func (*bufferMgmt) Name() string { return "buffer_mgmt" }

func (*bufferMgmt) Version() string { return "1.1.0" }

func (*bufferMgmt) Applied(p *core.Program) int { return -1 }

func (*bufferMgmt) LOC() int { return coreLOC(bufmgmtSource) }

// States of the buffer SM.
const (
	stHasBuf   = "has_buffer"
	stNoBuf    = "no_buffer"
	stHasBufNF = "has_buffer_nofree"
)

func (b *bufferMgmt) CheckCov(p *core.Program, spec *flash.Spec) ([]engine.Report, []*engine.Coverage) {
	sm, _ := b.BuildSM(spec)
	return p.RunSMCov(sm)
}

func (b *bufferMgmt) BuildSM(spec *flash.Spec) (*engine.SM, map[string]string) {
	sm := buildBufferSM(spec)
	sm.CorrelateBranches = b.correlate
	return sm, nil
}

// checker-core: begin

// buildBufferSM assembles the SM for one protocol spec.
func buildBufferSM(spec *flash.Spec) *engine.SM {
	one := map[string]string{"x": ""}

	freePats := []engine.Pattern{
		{Stmt: mustStmtPat("DEC_DB_REF(x);", one)},
	}
	for fn := range spec.BufferFreeFns {
		freePats = append(freePats,
			engine.Pattern{Stmt: mustStmtPat(fn+"();", nil)},
			engine.Pattern{Stmt: mustStmtPat(fn+"(x);", one)})
	}
	allocPats := []engine.Pattern{
		{Stmt: mustStmtPat("x = ALLOC_DB();", one)},
		{Stmt: mustStmtPat("ALLOC_DB();", nil)},
	}
	var usePats []engine.Pattern
	for _, s := range sendPatterns() {
		usePats = append(usePats, engine.Pattern{Expr: s})
	}
	for fn := range spec.BufferUseFns {
		usePats = append(usePats,
			engine.Pattern{Stmt: mustStmtPat(fn+"();", nil)},
			engine.Pattern{Stmt: mustStmtPat(fn+"(x);", one)})
	}
	hasBufAnn := []engine.Pattern{{Stmt: mustStmtPat("has_buffer();", nil)}}
	noFreeAnn := []engine.Pattern{{Stmt: mustStmtPat("no_free_needed();", nil)}}

	sm := &engine.SM{
		Name: "buffer_mgmt",
		// StartFor picks between these per function; Starts mirrors
		// them for static reachability (package lint).
		Starts: []string{stHasBuf, stNoBuf},
		StartFor: func(fn *ast.FuncDecl) string {
			switch spec.Classify(fn.Name) {
			case flash.HardwareHandler:
				return stHasBuf
			case flash.SoftwareHandler:
				return stNoBuf
			}
			if spec.BufferFreeFns[fn.Name] || spec.BufferUseFns[fn.Name] {
				return stHasBuf // consistency check of the tables
			}
			return "" // unlisted subroutines are not checked locally
		},
	}

	incPats := []engine.Pattern{{Stmt: mustStmtPat("INC_DB_REF(x);", one)}}

	sm.Rules = []*engine.Rule{
		// Annotations first so they win over conflicting patterns.
		{State: engine.All, Patterns: hasBufAnn, Target: stHasBuf, Tag: "ann-has-buffer"},
		{State: engine.All, Patterns: noFreeAnn, Target: stHasBufNF, Tag: "ann-no-free"},

		// The paper's §11 lesson: a manual reference-count increment
		// blinded the checker and cost a day of debugging, so the
		// extension now "aggressively objects to occurrences of this
		// call". The two-state SM still cannot count references — the
		// audit report is the remedy, placed next to any downstream
		// misjudged free.
		{State: engine.All, Patterns: incPats, Target: stHasBuf, Tag: "manual-incref",
			Action: func(c *engine.Ctx) {
				c.Report("manual INC_DB_REF: the checker cannot track hand-adjusted reference counts; audit this call")
			}},

		// Frees.
		{State: stHasBuf, Patterns: freePats, Target: stNoBuf, Tag: "free"},
		{State: stHasBufNF, Patterns: freePats, Target: stNoBuf, Tag: "free"},
		{State: stNoBuf, Patterns: freePats, Tag: "double-free",
			Action: func(c *engine.Ctx) {
				c.Report("buffer freed twice (no buffer held here)")
			}},

		// Allocations.
		{State: stNoBuf, Patterns: allocPats, Target: stHasBuf, Tag: "alloc"},
		{State: stHasBuf, Patterns: allocPats, Tag: "alloc-leak",
			Action: func(c *engine.Ctx) {
				c.Report("allocation overwrites a live buffer (leak)")
			}},
		{State: stHasBufNF, Patterns: allocPats, Tag: "alloc-leak",
			Action: func(c *engine.Ctx) {
				c.Report("allocation overwrites a live buffer (leak)")
			}},

		// Uses without a buffer.
		{State: stNoBuf, Patterns: usePats, Tag: "use-no-buffer",
			Action: func(c *engine.Ctx) {
				c.Report("send/use without a data buffer")
			}},
	}

	// Conditional frees: branch-sensitive (paper §6 refinement).
	for fn := range spec.CondFreeFns {
		for _, txt := range []string{fn + "()", fn + "(x)"} {
			sm.Cond = append(sm.Cond, &engine.CondRule{
				State:      stHasBuf,
				Pattern:    mustExprPat(txt, one),
				TrueTarget: stNoBuf,
			})
		}
	}

	sm.AtExit = func(c *engine.Ctx) {
		name := c.FnName()
		switch {
		case spec.BufferUseFns[name]:
			if c.State == stNoBuf {
				c.Report("routine listed as buffer-user freed its caller's buffer")
			}
		default:
			if c.State == stHasBuf {
				c.Report("buffer not freed on exit (leak)")
			}
		}
	}
	return sm
}

// checker-core: end

// coreLOC counts the non-blank, non-comment lines between the
// checker-core markers of an embedded Go source file, so Table 7's
// checker-size column reports measured sizes rather than guesses.
func coreLOC(src string) int {
	lines := strings.Split(src, "\n")
	in := false
	count := 0
	for _, ln := range lines {
		t := strings.TrimSpace(ln)
		switch {
		case strings.Contains(t, "checker-core: begin"):
			in = true
		case strings.Contains(t, "checker-core: end"):
			in = false
		case in && t != "" && !strings.HasPrefix(t, "//"):
			count++
		}
	}
	return count
}
