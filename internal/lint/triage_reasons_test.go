package lint

import (
	"testing"

	"flashmc/internal/cc/cpp"
	"flashmc/internal/cc/token"
	"flashmc/internal/cfg"
	"flashmc/internal/core"
	"flashmc/internal/engine"
)

// The reason table test: every conservative fallback and verdict in
// the triage ladder must surface its own pinned Reason string, so
// downstream tools (and the EXPERIMENTS tables) can attribute
// verdicts without parsing prose. Each scenario below manufactures
// exactly one ladder outcome.
func TestTriageReasonTable(t *testing.T) {
	sm := freeSM(t)

	// Locate the statement node on a given source line so fabricated
	// reports land on a real CFG node.
	stmtPosAtLine := func(g *cfg.Graph, line int) token.Pos {
		for _, n := range g.Nodes {
			if n.Kind == cfg.KindStmt && n.Stmt != nil && n.Pos().Line == line {
				return n.Pos()
			}
		}
		t.Fatalf("no stmt node on line %d", line)
		return token.Pos{}
	}

	type scenario struct {
		name   string
		src    string
		mode   TriageMode
		opt    TriageOptions
		report func(g *cfg.Graph) engine.Report
		run    func(g *cfg.Graph, r engine.Report, opt TriageOptions) RankedReport
		conf   Confidence
		reason string
	}

	// A leak report at function exit, the shape most scenarios rank.
	leakAt := func(g *cfg.Graph) engine.Report {
		return engine.Report{SM: "free", Rule: "at-exit", Fn: "h",
			Pos: g.Exit.Pos(), Msg: "leak: buffer never freed",
			Trace: engine.Witness(g.Exit.Pos(), "at-exit", "exit")}
	}
	viaSM := func(g *cfg.Graph, r engine.Report, opt TriageOptions) RankedReport {
		return TriageSM(g, sm, []engine.Report{r}, opt)[0]
	}

	scenarios := []scenario{
		{
			name: "site-not-found",
			src:  `void h(void) { DEC_DB_REF(0); }`,
			report: func(g *cfg.Graph) engine.Report {
				return engine.Report{SM: "free", Rule: "double-free", Fn: "h",
					Pos:   token.Pos{File: "elsewhere.c", Line: 999},
					Msg:   "double free",
					Trace: engine.Witness(token.Pos{File: "elsewhere.c", Line: 999}, "double-free", "?")}
			},
			run: viaSM, conf: Certain, reason: ReasonSiteNotFound,
		},
		{
			name: "budget-exhausted",
			src:  `void h(void) { unsigned t0; if (t0) { ; } if (t0) { ; } }`,
			opt:  TriageOptions{MaxSteps: 1},
			report: func(g *cfg.Graph) engine.Report {
				return leakAt(g)
			},
			run: viaSM, conf: Certain, reason: ReasonBudget,
		},
		{
			name: "unreachable-site",
			src: `void h(void) {
	return;
	DEC_DB_REF(0);
}`,
			report: func(g *cfg.Graph) engine.Report {
				pos := stmtPosAtLine(g, 3)
				return engine.Report{SM: "free", Rule: "double-free", Fn: "h",
					Pos: pos, Msg: "double free",
					Trace: engine.Witness(pos, "double-free", "DEC_DB_REF(0)")}
			},
			run: viaSM, conf: Certain, reason: ReasonUnreachable,
		},
		{
			name: "feasible",
			src:  `void h(void) { ; }`,
			report: func(g *cfg.Graph) engine.Report {
				return leakAt(g)
			},
			run: viaSM, conf: Certain, reason: ReasonFeasible,
		},
		{
			name: "not-reproduced",
			src:  `void h(void) { DEC_DB_REF(0); }`,
			report: func(g *cfg.Graph) engine.Report {
				// A leak report although every path frees: never
				// replays, kept conservatively.
				return leakAt(g)
			},
			run: viaSM, conf: Certain, reason: ReasonNotOnPath,
		},
		{
			name: "contradicted",
			src: `void h(void) {
	unsigned m;
	if (m) { DEC_DB_REF(0); }
	if (m) { ; } else { DEC_DB_REF(0); }
}`,
			report: func(g *cfg.Graph) engine.Report {
				// The double free needs m both true and false; replay
				// the real engine report so positions line up.
				reports, _ := engine.RunCov(g, sm)
				for _, r := range reports {
					if r.Rule == "double-free" {
						return r
					}
				}
				t.Fatal("engine did not fire the double free")
				return engine.Report{}
			},
			run: viaSM, conf: LikelyFP, reason: ReasonContradicted,
		},
		{
			name: "sym-refuted",
			src: `void h(void) {
	unsigned t0;
	t0 = t0 | 2;
	if (t0 & 2) { DEC_DB_REF(0); }
}`,
			mode: ModeSym,
			report: func(g *cfg.Graph) engine.Report {
				// The leak fires only on the mask-contradicted else
				// path: provably unsatisfiable.
				return leakAt(g)
			},
			run: viaSM, conf: Infeasible, reason: ReasonSymRefuted,
		},
		{
			name: "sym-undecided",
			src: `void h(void) {
	unsigned i;
	i = 0;
	while (i < 1) { i = i + 1; }
}`,
			mode: ModeSym,
			report: func(g *cfg.Graph) engine.Report {
				// The leak fires on every exit path; the zero-iteration
				// path is refuted (0 < 1 must hold) but the loop paths
				// cross a back edge, which the evaluator will not judge.
				return leakAt(g)
			},
			run: viaSM, conf: Certain, reason: ReasonSymUndecided,
		},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			g := buildGraph(t, sc.src)
			opt := sc.opt
			if sc.mode != "" {
				opt.Mode = sc.mode
			}
			rr := sc.run(g, sc.report(g), opt)
			if rr.Confidence != sc.conf {
				t.Errorf("confidence %q, want %q (reason %q)", rr.Confidence, sc.conf, rr.Reason)
			}
			if rr.Reason != sc.reason {
				t.Errorf("reason %q, want %q", rr.Reason, sc.reason)
			}
		})
	}

	// The function-not-found fallback needs the program-level entry
	// point; a report naming an unknown function must not be triaged.
	t.Run("fn-not-found", func(t *testing.T) {
		prog, err := core.Load("t", cpp.MapSource{"p.c": "void h(void) { ; }\n"}, []string{"p.c"})
		if err != nil {
			t.Fatal(err)
		}
		rr := TriageProgram(prog, sm, []engine.Report{{SM: "free", Fn: "ghost"}}, TriageOptions{})[0]
		if rr.Confidence != Certain || rr.Reason != ReasonFnNotFound {
			t.Errorf("got %q/%q", rr.Confidence, rr.Reason)
		}
	})
}
