package checkers

import (
	_ "embed"

	"flashmc/internal/cc/ast"
	"flashmc/internal/core"
	"flashmc/internal/engine"
	"flashmc/internal/flash"
)

//go:embed directory.go
var directorySource string

// directory is the §9 manual directory-entry update checker. Handlers
// must DIR_LOAD an entry before reading or modifying it, and a
// modified entry must be written back before the handler completes —
// unless the handler abandons its speculative modification by sending
// a NAK reply (the paper's false-positive eliminator). DIR_LOAD
// addresses must come from the DIR_ADDR address-calculation macro;
// explicitly computed addresses are the paper's "abstraction errors".
type directory struct{}

// NewDirectory returns the directory-management checker.
func NewDirectory() Checker { return &directory{} }

func (*directory) Name() string { return "directory" }

func (*directory) Version() string { return "1.1.0" }

func (*directory) LOC() int { return coreLOC(directorySource) }

// dirOpPatterns lists the directory operations whose occurrence count
// is the table's Applied column.
func dirOpPatterns() []ast.Expr {
	one := map[string]string{"x": ""}
	return []ast.Expr{
		mustExprPat("DIR_LOAD(x)", one),
		mustExprPat("DIR_READ_STATE()", nil),
		mustExprPat("DIR_SET_STATE(x)", one),
		mustExprPat("DIR_SET_VECTOR(x)", one),
		mustExprPat("DIR_WRITEBACK(x)", one),
	}
}

func (*directory) Applied(p *core.Program) int {
	total := 0
	for _, pat := range dirOpPatterns() {
		total += p.Count(pat)
	}
	return total
}

func (*directory) CheckCov(p *core.Program, spec *flash.Spec) ([]engine.Report, []*engine.Coverage) {
	return p.RunSMCov(buildDirectorySM(spec))
}

func (*directory) BuildSM(spec *flash.Spec) (*engine.SM, map[string]string) {
	return buildDirectorySM(spec), nil
}

// checker-core: begin

// Directory SM states.
const (
	stUnloaded = "unloaded"
	stLoaded   = "loaded"
	stModified = "modified"
)

func buildDirectorySM(spec *flash.Spec) *engine.SM {
	one := map[string]string{"x": ""}
	args := map[string]string{"x": "", "a1": "", "a2": "", "a3": "", "a4": "", "a5": ""}

	loadGood := []engine.Pattern{{Stmt: mustStmtPat("DIR_LOAD(DIR_ADDR(x));", one)}}
	loadAny := []engine.Pattern{{Stmt: mustStmtPat("DIR_LOAD(x);", one)}}
	reads := []engine.Pattern{{Expr: mustExprPat("DIR_READ_STATE()", nil)}}
	modifies := []engine.Pattern{
		{Stmt: mustStmtPat("DIR_SET_STATE(x);", one)},
		{Stmt: mustStmtPat("DIR_SET_VECTOR(x);", one)},
	}
	writeback := []engine.Pattern{{Stmt: mustStmtPat("DIR_WRITEBACK(x);", one)}}
	// A NAK reply abandons a speculative modification legitimately.
	naks := []engine.Pattern{
		{Expr: mustExprPat("NI_SEND_RPLY(MSG_NAK, a1, a2, a3, a4, a5)", args)},
		{Expr: mustExprPat("NI_SEND(MSG_NAK, a1, a2, a3, a4, a5)", args)},
	}

	sm := &engine.SM{
		Name:  "directory",
		Start: stUnloaded,
		StartFor: func(fn *ast.FuncDecl) string {
			// Every routine is checked; subroutines that modify on
			// their caller's behalf produce the paper's subroutine
			// false positives.
			return stUnloaded
		},
	}
	sm.Rules = []*engine.Rule{
		// Loads.
		{State: engine.All, Patterns: loadGood, Target: stLoaded, Tag: "load"},
		{State: engine.All, Patterns: loadAny, Target: stLoaded, Tag: "load-raw",
			Action: func(c *engine.Ctx) {
				c.Report("directory address computed explicitly (use DIR_ADDR)")
			}},

		// Uses before load.
		{State: stUnloaded, Patterns: reads, Target: stLoaded, Tag: "use-before-load",
			Action: func(c *engine.Ctx) {
				c.Report("directory entry read before DIR_LOAD")
			}},
		{State: stUnloaded, Patterns: modifies, Target: stModified, Tag: "mod-before-load",
			Action: func(c *engine.Ctx) {
				c.Report("directory entry modified before DIR_LOAD")
			}},
		{State: stUnloaded, Patterns: writeback, Target: stLoaded, Tag: "spurious-wb",
			Action: func(c *engine.Ctx) {
				c.Report("spurious directory writeback (nothing loaded)")
			}},

		// Normal lifecycle.
		{State: stLoaded, Patterns: modifies, Target: stModified, Tag: "modify"},
		{State: stModified, Patterns: writeback, Target: stLoaded, Tag: "writeback"},
		{State: stLoaded, Patterns: writeback, Tag: "wb-unmodified"}, // harmless
		{State: stModified, Patterns: naks, Target: stLoaded, Tag: "nak-abandon"},
	}
	sm.AtExit = func(c *engine.Ctx) {
		if c.State == stModified {
			c.Report("modified directory entry not written back")
		}
	}
	return sm
}

// checker-core: end
