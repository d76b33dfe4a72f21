package match_test

import (
	"testing"

	"flashmc/internal/cc/ast"
	"flashmc/internal/cc/parser"
	"flashmc/internal/cfg"
	"flashmc/internal/checkers"
	"flashmc/internal/core"
	"flashmc/internal/flashgen"
	"flashmc/internal/match"
)

// TestSigRejectsOnlyMisses: over the six seed-1 flashgen protocols,
// every rule alternative and cond pattern of every built-in SM checker
// (plus extraPatterns) against every CFG node event, wherever the
// node's signature (cfg.Graph.Sigs) rejects the pattern's, the
// pattern must not match the event: match.First finds no hit, and a
// statement pattern no match.Stmt match either. The env is nil, which
// lets every wildcard bind freely, so a nil-env miss is a miss under
// any env the engine could pass.
func TestSigRejectsOnlyMisses(t *testing.T) {
	type pattern struct {
		stmt ast.Stmt // nil for an expression pattern
		expr ast.Expr // nil for a statement pattern with no expression
		sig  uint64
	}
	var extra []pattern
	for _, x := range extraPatterns {
		e, err := parser.ParseExprPattern(x.src, parser.PatternContext{Wildcards: x.wild})
		if err != nil {
			t.Fatalf("pattern %q: %v", x.src, err)
		}
		extra = append(extra, pattern{expr: e, sig: match.Sig(e)})
	}

	var events, pairs, rejected int
	for _, p := range flashgen.Generate(flashgen.Options{Seed: 1}).Protocols {
		prog, err := core.Load(p.Name, p.Source(), p.RootFiles)
		if err != nil {
			t.Fatalf("load %s: %v", p.Name, err)
		}
		pats := append([]pattern(nil), extra...)
		for _, c := range checkers.All() {
			sp, ok := c.(checkers.SMProvider)
			if !ok {
				continue
			}
			sm, _ := sp.BuildSM(p.Spec)
			for _, r := range sm.Rules {
				for _, alt := range r.Patterns {
					if alt.Stmt != nil {
						var x ast.Expr
						if es, ok := alt.Stmt.(*ast.ExprStmt); ok {
							x = es.X
						}
						pats = append(pats, pattern{stmt: alt.Stmt, expr: x, sig: match.Sig(alt.Stmt)})
					} else {
						pats = append(pats, pattern{expr: alt.Expr, sig: match.Sig(alt.Expr)})
					}
				}
			}
			for _, cr := range sm.Cond {
				pats = append(pats, pattern{expr: cr.Pattern, sig: match.Sig(cr.Pattern)})
			}
		}

		for _, g := range prog.Graphs {
			if len(g.Sigs) != len(g.Nodes) {
				t.Fatalf("%s: %d node signatures for %d nodes", g.Fn.Name, len(g.Sigs), len(g.Nodes))
			}
			for _, n := range g.Nodes {
				var ev ast.Node
				switch n.Kind {
				case cfg.KindStmt:
					ev = n.Stmt
				case cfg.KindBranch:
					ev = n.Cond
				default:
					continue
				}
				events++
				sig := g.Sigs[n.ID]
				for _, pt := range pats {
					pairs++
					if match.MayMatch(sig, pt.sig) {
						continue
					}
					rejected++
					if pt.expr != nil {
						if hit, _, ok := match.First(pt.expr, ev, nil); ok {
							t.Fatalf("%s: node signature %#x rejects pattern %s (%#x), which hits %s in %s",
								g.Fn.Name, sig, ast.ExprString(pt.expr), pt.sig, ast.ExprString(hit), eventString(ev))
						}
					}
					if s, ok := ev.(ast.Stmt); ok && pt.stmt != nil {
						if _, ok := match.Stmt(pt.stmt, s, nil); ok {
							t.Fatalf("%s: node signature %#x rejects statement pattern %s (%#x), which matches %s",
								g.Fn.Name, sig, ast.StmtString(pt.stmt), pt.sig, ast.StmtString(s))
						}
					}
				}
			}
		}
	}
	t.Logf("%d events, %d pattern pairs, %d rejected by signature", events, pairs, rejected)
	if rejected == 0 || rejected == pairs {
		t.Fatalf("the signature rejects %d of %d pairs: the check is vacuous", rejected, pairs)
	}
}
