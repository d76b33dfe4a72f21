package engine

import (
	"strings"
	"testing"

	"flashmc/internal/cc/ast"
	"flashmc/internal/cc/parser"
	"flashmc/internal/cfg"
)

// mkPattern compiles a statement pattern with the given wildcards.
func mkPattern(t *testing.T, src string, wild map[string]string) Pattern {
	t.Helper()
	s, err := parser.ParseStmtPattern(src, parser.PatternContext{Wildcards: wild})
	if err != nil {
		t.Fatalf("pattern %q: %v", src, err)
	}
	return Pattern{Stmt: s}
}

func mkExprPattern(t *testing.T, src string, wild map[string]string) ast.Expr {
	t.Helper()
	e, err := parser.ParseExprPattern(src, parser.PatternContext{Wildcards: wild})
	if err != nil {
		t.Fatalf("pattern %q: %v", src, err)
	}
	return e
}

func buildGraph(t *testing.T, src string) *cfg.Graph {
	t.Helper()
	f, errs := parser.ParseText("t.c", src)
	if len(errs) != 0 {
		t.Fatalf("parse: %v", errs)
	}
	return cfg.Build(f.Funcs()[0])
}

// waitForDBSM reproduces Figure 2 of the paper.
func waitForDBSM(t *testing.T) *SM {
	w := map[string]string{"addr": "scalar", "buf": "scalar"}
	return &SM{
		Name:  "wait_for_db",
		Start: "start",
		Rules: []*Rule{
			{State: "start", Patterns: []Pattern{mkPattern(t, "WAIT_FOR_DB_FULL(addr);", w)}, Target: Stop},
			{State: "start", Patterns: []Pattern{mkPattern(t, "MISCBUS_READ_DB(addr, buf);", w)},
				Tag: "race",
				Action: func(c *Ctx) {
					c.Report("Buffer not synchronized")
				}},
		},
	}
}

func TestBufferRaceDetected(t *testing.T) {
	g := buildGraph(t, `
void handler(void) {
	int a;
	int b;
	MISCBUS_READ_DB(a, b);
	WAIT_FOR_DB_FULL(a);
}`)
	reports, _ := RunCov(g, waitForDBSM(t))
	if len(reports) != 1 {
		t.Fatalf("reports: %v", reports)
	}
	if !strings.Contains(reports[0].Msg, "not synchronized") {
		t.Errorf("msg %q", reports[0].Msg)
	}
}

func TestWaitBeforeReadOK(t *testing.T) {
	g := buildGraph(t, `
void handler(void) {
	int a;
	int b;
	WAIT_FOR_DB_FULL(a);
	MISCBUS_READ_DB(a, b);
}`)
	if reports, _ := RunCov(g, waitForDBSM(t)); len(reports) != 0 {
		t.Fatalf("unexpected reports: %v", reports)
	}
}

func TestRaceOnOnePathOnly(t *testing.T) {
	// The wait happens only on the then-arm; the else path reads
	// unsynchronized.
	g := buildGraph(t, `
void handler(int c) {
	int a;
	int b;
	if (c) {
		WAIT_FOR_DB_FULL(a);
	}
	MISCBUS_READ_DB(a, b);
}`)
	reports, _ := RunCov(g, waitForDBSM(t))
	if len(reports) != 1 {
		t.Fatalf("reports: %v", reports)
	}
}

func TestReadInsideConditionDetected(t *testing.T) {
	g := buildGraph(t, `
void handler(int c) {
	int a;
	int b;
	if (MISCBUS_READ_DB(a, b) == 0) {
		c = 1;
	}
}`)
	reports, _ := RunCov(g, waitForDBSM(t))
	if len(reports) != 1 {
		t.Fatalf("reports: %v", reports)
	}
}

func TestReadInsideLargerExpression(t *testing.T) {
	g := buildGraph(t, `
void handler(void) {
	int a;
	int b;
	int v;
	v = MISCBUS_READ_DB(a, b) + 1;
}`)
	if reports, _ := RunCov(g, waitForDBSM(t)); len(reports) != 1 {
		t.Fatalf("reports: %v", reports)
	}
}

func TestStopKillsPathNotSiblings(t *testing.T) {
	// Wait on one arm stops checking there, but the other arm's read
	// still reports.
	g := buildGraph(t, `
void handler(int c) {
	int a;
	int b;
	if (c) {
		WAIT_FOR_DB_FULL(a);
		MISCBUS_READ_DB(a, b);
	} else {
		MISCBUS_READ_DB(a, b);
	}
}`)
	reports, _ := RunCov(g, waitForDBSM(t))
	if len(reports) != 1 {
		t.Fatalf("reports: %v", reports)
	}
	if reports[0].Pos.Line != 9 {
		t.Errorf("wrong site: %v", reports[0].Pos)
	}
}

// msglenSM reproduces Figure 3's shape with a reduced pattern set.
func msglenSM(t *testing.T) *SM {
	w := map[string]string{"k": "", "s": "", "wt": "", "d": "", "n": ""}
	return &SM{
		Name:  "msglen",
		Start: All, // start in the neutral all state
		Rules: []*Rule{
			{State: All, Patterns: []Pattern{mkPattern(t, "HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;", nil)}, Target: "zero_len"},
			{State: All, Patterns: []Pattern{
				mkPattern(t, "HANDLER_GLOBALS(header.nh.len) = LEN_WORD;", nil),
				mkPattern(t, "HANDLER_GLOBALS(header.nh.len) = LEN_CACHELINE;", nil),
			}, Target: "nonzero_len"},
			{State: "zero_len", Patterns: []Pattern{mkPattern(t, "PI_SEND(F_DATA, k, s, wt, d, n);", w)},
				Tag: "zero-data",
				Action: func(c *Ctx) {
					c.Report("data send, zero len")
				}},
			{State: "nonzero_len", Patterns: []Pattern{mkPattern(t, "PI_SEND(F_NODATA, k, s, wt, d, n);", w)},
				Tag: "nonzero-nodata",
				Action: func(c *Ctx) {
					c.Report("nodata send, nonzero len")
				}},
		},
	}
}

func TestMsglenInconsistency(t *testing.T) {
	g := buildGraph(t, `
void handler(void) {
	HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;
	PI_SEND(F_DATA, 1, 0, 1, 1, 0);
}`)
	reports, _ := RunCov(g, msglenSM(t))
	if len(reports) != 1 || !strings.Contains(reports[0].Msg, "data send, zero len") {
		t.Fatalf("reports: %v", reports)
	}
}

func TestMsglenConsistentOK(t *testing.T) {
	g := buildGraph(t, `
void handler(void) {
	HANDLER_GLOBALS(header.nh.len) = LEN_CACHELINE;
	PI_SEND(F_DATA, 1, 0, 1, 1, 0);
	HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;
	PI_SEND(F_NODATA, 1, 0, 1, 1, 0);
}`)
	if reports, _ := RunCov(g, msglenSM(t)); len(reports) != 0 {
		t.Fatalf("unexpected: %v", reports)
	}
}

func TestMsglenNeutralStartIgnoresSends(t *testing.T) {
	// Sends before any length assignment are ignored (checker starts
	// in 'all').
	g := buildGraph(t, `
void handler(void) {
	PI_SEND(F_DATA, 1, 0, 1, 1, 0);
}`)
	if reports, _ := RunCov(g, msglenSM(t)); len(reports) != 0 {
		t.Fatalf("unexpected: %v", reports)
	}
}

func TestAllRulesApplyInNamedStates(t *testing.T) {
	// A reassignment to nonzero after zero must move states (the all
	// rule fires while in zero_len).
	g := buildGraph(t, `
void handler(void) {
	HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;
	HANDLER_GLOBALS(header.nh.len) = LEN_WORD;
	PI_SEND(F_DATA, 1, 0, 1, 1, 0);
}`)
	if reports, _ := RunCov(g, msglenSM(t)); len(reports) != 0 {
		t.Fatalf("unexpected: %v", reports)
	}
}

func TestAtExitLeakDetection(t *testing.T) {
	free := mkPattern(t, "MISCBUS_DEC_DB(b);", map[string]string{"b": ""})
	sm := &SM{
		Name:  "leak",
		Start: "has_buffer",
		Rules: []*Rule{
			{State: "has_buffer", Patterns: []Pattern{free}, Target: "no_buffer"},
		},
		AtExit: func(c *Ctx) {
			if c.State == "has_buffer" {
				c.Report("buffer leaked")
			}
		},
	}
	g := buildGraph(t, `
void handler(int c) {
	if (c) {
		MISCBUS_DEC_DB(0);
	}
}`)
	reports, _ := RunCov(g, sm)
	if len(reports) != 1 || !strings.Contains(reports[0].Msg, "leaked") {
		t.Fatalf("reports: %v", reports)
	}
	// Freeing on both paths silences it.
	g2 := buildGraph(t, `
void handler(int c) {
	if (c) {
		MISCBUS_DEC_DB(0);
	} else {
		MISCBUS_DEC_DB(0);
	}
}`)
	if reports, _ := RunCov(g2, sm); len(reports) != 0 {
		t.Fatalf("unexpected: %v", reports)
	}
}

func TestStartForSkipsFunctions(t *testing.T) {
	sm := waitForDBSM(t)
	sm.StartFor = func(fn *ast.FuncDecl) string {
		if fn.Name == "handler" {
			return "start"
		}
		return ""
	}
	g := buildGraph(t, `
void helper(void) {
	int a;
	int b;
	MISCBUS_READ_DB(a, b);
}`)
	if reports, _ := RunCov(g, sm); len(reports) != 0 {
		t.Fatalf("skipped function still reported: %v", reports)
	}
}

func TestCondRuleValueSensitivity(t *testing.T) {
	// conditional_free(b) returns 1 when it freed the buffer; the
	// checker must take the freed state only on the true edge
	// (paper §6's value-sensitivity refinement).
	freeCond := mkExprPattern(t, "conditional_free(b)", map[string]string{"b": ""})
	use := mkPattern(t, "use_buffer(b);", map[string]string{"b": ""})
	sm := &SM{
		Name:  "valsense",
		Start: "has_buffer",
		Rules: []*Rule{
			{State: "no_buffer", Patterns: []Pattern{use},
				Tag: "uaf",
				Action: func(c *Ctx) {
					c.Report("use after free")
				}},
		},
		Cond: []*CondRule{
			{State: "has_buffer", Pattern: freeCond, TrueTarget: "no_buffer"},
		},
	}
	g := buildGraph(t, `
void handler(void) {
	if (conditional_free(0)) {
		use_buffer(0);
	} else {
		use_buffer(0);
	}
}`)
	reports, _ := RunCov(g, sm)
	if len(reports) != 1 {
		t.Fatalf("reports: %v", reports)
	}
	if reports[0].Pos.Line != 4 {
		t.Errorf("wrong arm flagged: %v", reports[0].Pos)
	}
}

func TestCondRuleNegation(t *testing.T) {
	freeCond := mkExprPattern(t, "conditional_free(b)", map[string]string{"b": ""})
	use := mkPattern(t, "use_buffer(b);", map[string]string{"b": ""})
	sm := &SM{
		Name:  "valsense",
		Start: "has_buffer",
		Rules: []*Rule{
			{State: "no_buffer", Patterns: []Pattern{use}, Tag: "uaf",
				Action: func(c *Ctx) { c.Report("use after free") }},
		},
		Cond: []*CondRule{
			{State: "has_buffer", Pattern: freeCond, TrueTarget: "no_buffer"},
		},
	}
	g := buildGraph(t, `
void handler(void) {
	if (!conditional_free(0)) {
		use_buffer(0);
	} else {
		use_buffer(0);
	}
}`)
	reports, _ := RunCov(g, sm)
	if len(reports) != 1 {
		t.Fatalf("reports: %v", reports)
	}
	if reports[0].Pos.Line != 6 {
		t.Errorf("wrong arm flagged under negation: %v", reports[0].Pos)
	}
}

func TestLoopTermination(t *testing.T) {
	g := buildGraph(t, `
void handler(int n) {
	int a;
	int b;
	while (n > 0) {
		if (n == 3) {
			WAIT_FOR_DB_FULL(a);
		}
		MISCBUS_READ_DB(a, b);
		n--;
	}
}`)
	reports, _ := RunCov(g, waitForDBSM(t))
	// The read is reachable with the wait not yet executed.
	if len(reports) != 1 {
		t.Fatalf("reports: %v", reports)
	}
}

func TestRunMatchesRunPaths(t *testing.T) {
	srcs := []string{
		`void h(int c) { int a; int b; if (c) WAIT_FOR_DB_FULL(a); MISCBUS_READ_DB(a, b); }`,
		`void h(int c) { int a; int b; WAIT_FOR_DB_FULL(a); MISCBUS_READ_DB(a, b); }`,
		`void h(int c) { int a; int b; MISCBUS_READ_DB(a, b); MISCBUS_READ_DB(b, a); }`,
		`void h(int c) { int a; int b; if (c) { MISCBUS_READ_DB(a, b); } else { WAIT_FOR_DB_FULL(a); MISCBUS_READ_DB(a, b); } }`,
		`void h(int c) { int a; int b; switch (c) { case 1: WAIT_FOR_DB_FULL(a); break; default: break; } MISCBUS_READ_DB(a, b); }`,
	}
	for _, src := range srcs {
		g := buildGraph(t, src)
		r1, _ := RunCov(g, waitForDBSM(t))
		r2 := RunPaths(g, waitForDBSM(t), 10000)
		if len(r1) != len(r2) {
			t.Errorf("%s:\ndataflow %v\npaths %v", src, r1, r2)
		}
	}
}

func TestCountApplied(t *testing.T) {
	f, errs := parser.ParseText("t.c", `
void a(void) { int x; int y; MISCBUS_READ_DB(x, y); }
void b(void) { int x; int y; int v; v = MISCBUS_READ_DB(x, y) + MISCBUS_READ_DB(y, x); }
`)
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	pat := mkExprPattern(t, "MISCBUS_READ_DB(x, y)", map[string]string{"x": "", "y": ""})
	if got := Count(f.Funcs(), pat); got != 3 {
		t.Errorf("applied %d", got)
	}
}

func TestFreshBindingPerRule(t *testing.T) {
	// Paper semantics: wildcards bind fresh at each rule match. Two
	// reads of different buffers must BOTH report; a persistent-env
	// engine would silently skip the second because addr/buf were
	// already bound.
	g := buildGraph(t, `
void handler(void) {
	int a1;
	int a2;
	int b;
	MISCBUS_READ_DB(a1, b);
	MISCBUS_READ_DB(a2, b);
}`)
	reports, _ := RunCov(g, waitForDBSM(t))
	if len(reports) != 2 {
		t.Fatalf("fresh binding broken, reports: %v", reports)
	}
}

func TestTrackedBindingPersists(t *testing.T) {
	// With Track, the created object's binding must persist so that
	// only operations on THAT object advance the SM.
	w := map[string]string{"o": "", "x": ""}
	sm := &SM{
		Name:  "obj",
		Start: "start",
		Track: []string{"o"},
		Rules: []*Rule{
			{State: "start", Patterns: []Pattern{mkPattern(t, "o = create();", w)}, Target: "live"},
			{State: "live", Patterns: []Pattern{mkPattern(t, "destroy(o);", w)}, Target: "start"},
			{State: "live", Patterns: []Pattern{mkPattern(t, "use_after(o);", w)}, Tag: "late",
				Action: func(c *Ctx) { c.Report("used while live: %s", c.Bound("o")) }},
		},
	}
	g := buildGraph(t, `
void handler(void) {
	int p;
	int q;
	p = create();
	use_after(q); /* different object: must NOT fire */
	use_after(p); /* tracked object: must fire */
	destroy(p);
	q = create();  /* re-entering start must rebind */
	use_after(q);  /* now q is the tracked object */
}`)
	reports, _ := RunCov(g, sm)
	if len(reports) != 2 {
		t.Fatalf("reports: %v", reports)
	}
	if !strings.Contains(reports[0].Msg, "p") || !strings.Contains(reports[1].Msg, "q") {
		t.Errorf("bindings: %v", reports)
	}
}

func TestReportDeduplication(t *testing.T) {
	// The same read reachable along two paths reports once.
	g := buildGraph(t, `
void handler(int c) {
	int a;
	int b;
	if (c) { c = 1; } else { c = 2; }
	MISCBUS_READ_DB(a, b);
}`)
	reports, _ := RunCov(g, waitForDBSM(t))
	if len(reports) != 1 {
		t.Fatalf("reports: %v", reports)
	}
}
