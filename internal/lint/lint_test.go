package lint

import (
	"os"
	"strings"
	"testing"

	"flashmc/internal/cc/parser"
	"flashmc/internal/cfg"
	"flashmc/internal/engine"
	"flashmc/internal/flash"
	"flashmc/internal/metal"
)

func compileMetalFile(t *testing.T, path string) *metal.Program {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	p, err := metal.Compile(string(src), metal.Options{Include: flash.HeaderSource()})
	if err != nil {
		t.Fatalf("compile %s: %v", path, err)
	}
	return p
}

func hasDiag(diags []Diag, pass string, sev Severity, substr string) bool {
	for _, d := range diags {
		if d.Pass == pass && d.Severity == sev && strings.Contains(d.Msg, substr) {
			return true
		}
	}
	return false
}

// TestBrokenFixtureFlagged is the acceptance fixture: a checker with
// an unreachable state, a shadowed rule, a dead (typo) pattern and an
// unused wildcard must light up every corresponding pass.
func TestBrokenFixtureFlagged(t *testing.T) {
	prog := compileMetalFile(t, "testdata/broken.metal")
	diags := CheckMetal(prog, FlashVocab())

	if !hasDiag(diags, "unreachable-state", Error, `"orphan"`) {
		t.Errorf("missing unreachable-state error for orphan:\n%v", diags)
	}
	if !hasDiag(diags, "shadowed-rule", Error, "every alternative is shadowed") {
		t.Errorf("missing dead shadowed-rule error:\n%v", diags)
	}
	if !hasDiag(diags, "shadowed-rule", Warn, "stops the configuration") {
		t.Errorf("missing stop-rule shadow note:\n%v", diags)
	}
	if !hasDiag(diags, "dead-pattern", Error, "MISCBUS_REED_DB") {
		t.Errorf("missing dead-pattern error for the typo:\n%v", diags)
	}
	if !hasDiag(diags, "unused-wildcard", Warn, `"ghost"`) {
		t.Errorf("missing unused-wildcard warning for ghost:\n%v", diags)
	}
}

// TestShippedMetalSourcesClean pins that the three embedded metal
// checkers lint clean (nothing at Warn or above).
func TestShippedMetalSourcesClean(t *testing.T) {
	vocab := FlashVocab()
	for _, path := range []string{
		"../checkers/metalsrc/wait_for_db.metal",
		"../checkers/metalsrc/msglen.metal",
		"../checkers/metalsrc/alloc_check.metal",
	} {
		prog := compileMetalFile(t, path)
		diags := CheckMetal(prog, vocab)
		for _, d := range diags {
			if d.Severity >= Warn {
				t.Errorf("%s: unexpected finding: %s", path, d)
			}
		}
	}
}

func stmtPat(t *testing.T, src string, wild map[string]string) engine.Pattern {
	t.Helper()
	s, err := parser.ParseStmtPattern(src, parser.PatternContext{Wildcards: wild})
	if err != nil {
		t.Fatalf("pattern %q: %v", src, err)
	}
	return engine.Pattern{Stmt: s}
}

func exprPat(t *testing.T, src string, wild map[string]string) engine.Pattern {
	t.Helper()
	e, err := parser.ParseExprPattern(src, parser.PatternContext{Wildcards: wild})
	if err != nil {
		t.Fatalf("pattern %q: %v", src, err)
	}
	return engine.Pattern{Expr: e}
}

func TestSubsumptionAndOverlap(t *testing.T) {
	one := map[string]string{"x": ""}
	specific := stmtPat(t, "DIR_LOAD(DIR_ADDR(x));", one)
	general := stmtPat(t, "DIR_LOAD(x);", one)
	other := stmtPat(t, "DIR_WRITEBACK(x);", one)
	alloc := stmtPat(t, "x = ALLOC_DB();", one)
	allocBare := stmtPat(t, "ALLOC_DB();", nil)
	eq := exprPat(t, "x == BUFFER_ERROR", one)
	neq := exprPat(t, "x != BUFFER_ERROR", one)

	if !subsumesPattern(general, specific) {
		t.Error("DIR_LOAD(x) should subsume DIR_LOAD(DIR_ADDR(x))")
	}
	if subsumesPattern(specific, general) {
		t.Error("DIR_LOAD(DIR_ADDR(x)) must not subsume DIR_LOAD(x)")
	}
	if !overlapsPattern(general, specific) || !overlapsPattern(specific, general) {
		t.Error("specific/general must overlap")
	}
	if overlapsPattern(general, other) {
		t.Error("DIR_LOAD vs DIR_WRITEBACK must not overlap")
	}
	// An expression-statement pattern matches sub-expressions, so the
	// bare-call form subsumes (and overlaps) the assignment form.
	if !subsumesPattern(allocBare, alloc) {
		t.Error("ALLOC_DB(); should subsume x = ALLOC_DB(); via sub-expression matching")
	}
	if subsumesPattern(alloc, allocBare) {
		t.Error("x = ALLOC_DB(); must not subsume ALLOC_DB();")
	}
	if overlapsPattern(eq, neq) {
		t.Error("== and != comparisons must not overlap")
	}
	if !subsumesPattern(eq, eq) {
		t.Error("a pattern must subsume itself")
	}
}

// TestSpecificBeforeGeneralIsInfo pins the severity split the
// directory checker relies on: declaring the more specific rule first
// is the supported idiom (Info), while the reverse order makes the
// specific rule dead (Error). The engine-side ground truth is
// TestSameStateRuleDeclarationOrder in package engine.
func TestSpecificBeforeGeneralIsInfo(t *testing.T) {
	one := map[string]string{"x": ""}
	specific := stmtPat(t, "DIR_LOAD(DIR_ADDR(x));", one)
	general := stmtPat(t, "DIR_LOAD(x);", one)

	sm := &engine.SM{Name: "dir", Start: "s", Rules: []*engine.Rule{
		{State: "s", Patterns: []engine.Pattern{specific}, Tag: "specific"},
		{State: "s", Patterns: []engine.Pattern{general}, Tag: "general"},
	}}
	diags := CheckSM(Target{SM: sm})
	if len(diags) == 0 {
		t.Fatal("specific-first: want an Info note, got none")
	}
	for _, d := range diags {
		if d.Severity != Info {
			t.Fatalf("specific-first: want only Info, got:\n%v", diags)
		}
	}

	sm.Rules[0], sm.Rules[1] = sm.Rules[1], sm.Rules[0]
	diags = CheckSM(Target{SM: sm})
	if !hasDiag(diags, "shadowed-rule", Error, "dead") {
		t.Fatalf("general-first: want dead-rule error, got:\n%v", diags)
	}
}

func buildGraph(t *testing.T, src string) *cfg.Graph {
	t.Helper()
	f, errs := parser.ParseText("t.c", src)
	if len(errs) != 0 {
		t.Fatalf("parse: %v", errs)
	}
	return cfg.Build(f.Funcs()[0])
}

// TestUncorrelatedBranchesDiag covers the satellite fix for the
// engine pruner's silent key-space bound: repeated non-identifier
// conditions become a visible diagnostic.
func TestUncorrelatedBranchesDiag(t *testing.T) {
	g := buildGraph(t, `
void h(int m) {
	if (m > 2) {
		DEC_DB_REF(0);
	}
	if (m > 2) {
		;
	} else {
		DEC_DB_REF(0);
	}
}`)
	diags := CheckGraph(g)
	if !hasDiag(diags, "uncorrelated-branches", Warn, `"m > 2"`) {
		t.Fatalf("want uncorrelated-branches warning, got:\n%v", diags)
	}

	// Bare identifiers are the pruner's own territory: no diagnostic.
	g = buildGraph(t, `
void h(int m) {
	if (m) { DEC_DB_REF(0); }
	if (m) { ; } else { DEC_DB_REF(0); }
}`)
	if diags := CheckGraph(g); len(diags) != 0 {
		t.Fatalf("bare identifier conditions must not be flagged:\n%v", diags)
	}

	// A write between occurrences makes re-testing legitimate.
	g = buildGraph(t, `
void h(int m) {
	if (m > 2) { DEC_DB_REF(0); }
	m = m + 1;
	if (m > 2) { ; } else { DEC_DB_REF(0); }
}`)
	if diags := CheckGraph(g); len(diags) != 0 {
		t.Fatalf("written condition operands must not be flagged:\n%v", diags)
	}

	// A write *before* the first occurrence (the initializing
	// assignment — the msglen variant shape) does not break the
	// correlation: only writes between tests are a barrier.
	g = buildGraph(t, `
void h(void) {
	long t0;
	t0 = MISCBUS_READ_DB(0);
	if (t0 & 1) { DEC_DB_REF(0); }
	if (t0 & 1) { ; } else { DEC_DB_REF(0); }
}`)
	if !hasDiag(CheckGraph(g), "uncorrelated-branches", Warn, `"t0 & 1"`) {
		t.Fatalf("initialized-then-tested-twice condition must be flagged:\n%v", CheckGraph(g))
	}
}

// freeSM is a minimal has/no buffer machine with an at-exit leak
// check, the shape behind the paper's bufmgmt false positives.
func freeSM(t *testing.T) *engine.SM {
	dec := stmtPat(t, "DEC_DB_REF(x);", map[string]string{"x": ""})
	return &engine.SM{
		Name:  "free",
		Start: "has",
		Rules: []*engine.Rule{
			{State: "has", Patterns: []engine.Pattern{dec}, Target: "no", Tag: "free"},
			{State: "no", Patterns: []engine.Pattern{dec}, Tag: "double-free",
				Action: func(c *engine.Ctx) { c.Report("double free") }},
		},
		AtExit: func(c *engine.Ctx) {
			if c.State == "has" {
				c.Report("leak: buffer never freed")
			}
		},
	}
}

// TestTriageDemotesInfeasiblePaths is the package-level version of
// the paper §6 claim: reports that only arise when one condition is
// taken both ways demote to likely-fp, while genuinely feasible
// reports stay certain.
func TestTriageDemotesInfeasiblePaths(t *testing.T) {
	sm := freeSM(t)
	g := buildGraph(t, `
void h(int m) {
	if (m > 2) {
		DEC_DB_REF(0);
	}
	if (m > 2) {
		;
	} else {
		DEC_DB_REF(0);
	}
}`)
	reports, _ := engine.RunCov(g, sm)
	if len(reports) != 2 {
		t.Fatalf("fixed point: want double-free + leak, got %v", reports)
	}
	ranked := TriageSM(g, sm, reports, TriageOptions{})
	for _, rr := range ranked {
		if rr.Confidence != LikelyFP {
			t.Errorf("%s: want likely-fp (infeasible arm combination), got %s (%s)",
				rr.Msg, rr.Confidence, rr.Reason)
		}
	}

	// The same machine over straight-line code: both reports are
	// real and must stay certain.
	g = buildGraph(t, `
void h(void) {
	DEC_DB_REF(0);
	DEC_DB_REF(0);
}`)
	reports, _ = engine.RunCov(g, sm)
	if len(reports) != 1 {
		t.Fatalf("want the double-free report, got %v", reports)
	}
	ranked = TriageSM(g, sm, reports, TriageOptions{})
	if ranked[0].Confidence != Certain {
		t.Fatalf("feasible double free demoted: %+v", ranked[0])
	}

	// A genuine leak on a feasible path also stays certain, even
	// with branches around.
	g = buildGraph(t, `
void h(int m) {
	if (m > 2) {
		DEC_DB_REF(0);
	}
}`)
	reports, _ = engine.RunCov(g, sm)
	ranked = TriageSM(g, sm, reports, TriageOptions{})
	if len(ranked) != 1 || ranked[0].Confidence != Certain {
		t.Fatalf("feasible leak must stay certain: %+v", ranked)
	}
}

// TestTriageInvalidation: writing a condition operand between the two
// tests makes the contradictory path feasible again — no demotion.
func TestTriageInvalidation(t *testing.T) {
	sm := freeSM(t)
	g := buildGraph(t, `
void h(int m) {
	if (m > 2) {
		DEC_DB_REF(0);
	}
	m = m + 1;
	if (m > 2) {
		;
	} else {
		DEC_DB_REF(0);
	}
}`)
	reports, _ := engine.RunCov(g, sm)
	ranked := TriageSM(g, sm, reports, TriageOptions{})
	for _, rr := range ranked {
		if rr.Confidence != Certain {
			t.Errorf("%s: invalidated condition must stay certain, got %s", rr.Msg, rr.Confidence)
		}
	}
}
