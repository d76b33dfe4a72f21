package checkers

import (
	_ "embed"

	"flashmc/internal/cc/ast"
	"flashmc/internal/cc/types"
	"flashmc/internal/core"
	"flashmc/internal/engine"
	"flashmc/internal/flash"
)

//go:embed nofloat.go
var nofloatSource string

// noFloat is the §8 floating-point restriction: MAGIC's protocol
// processor has no FPU, so no expression in protocol code may have
// floating-point type. Like the paper's version it "registers a
// function ... invoked on every tree node and checks that no tree node
// has a floating point type" — seven lines of checker core.
type noFloat struct{}

// NewNoFloat returns the no-floating-point checker.
func NewNoFloat() Checker { return &noFloat{} }

func (*noFloat) Name() string { return "nofloat" }

func (*noFloat) Version() string { return "1.1.0" }

func (*noFloat) LOC() int { return coreLOC(nofloatSource) }

func (*noFloat) Applied(p *core.Program) int { return -1 }

// checker-core: begin

func floatReports(p *core.Program) []engine.Report {
	var out []engine.Report
	for _, fn := range p.Fns {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok && e.Type() != nil && types.IsFloat(e.Type()) {
				msg := "floating point operation in protocol code"
				out = append(out, engine.Report{SM: "nofloat", Rule: "float",
					Fn: fn.Name, Pos: e.Pos(), Msg: msg,
					Trace: engine.Witness(e.Pos(), "float", ast.ExprString(e))})
				return false // one report per float subtree
			}
			return true
		})
	}
	return out
}

// checker-core: end

// CheckCov reports every float subtree and attributes coverage:
// "typecheck" counts every typed expression examined — the checker's
// real work on a clean protocol (seeded corpora have no float sites,
// so "float" alone would read as a dead checker) — and "float" counts
// the violations.
func (*noFloat) CheckCov(p *core.Program, spec *flash.Spec) ([]engine.Report, []*engine.Coverage) {
	out := floatReports(p)
	cov := &engine.Coverage{SM: "nofloat"}
	examined := uint64(0)
	for _, fn := range p.Fns {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok && e.Type() != nil {
				examined++
			}
			return true
		})
	}
	if examined > 0 {
		cov.Rules = map[string]uint64{"typecheck": examined}
	}
	for _, r := range out {
		if cov.Rules == nil {
			cov.Rules = map[string]uint64{}
		}
		cov.Rules[r.Rule]++
	}
	return out, []*engine.Coverage{cov}
}
