package engine

import (
	"strings"
	"testing"
)

func TestAtExitUnreachableExit(t *testing.T) {
	// A handler that never terminates has no exit configurations; the
	// at-exit hook must not fire.
	sm := &SM{
		Name:  "exitcheck",
		Start: "s",
		AtExit: func(c *Ctx) {
			c.Report("reached exit")
		},
	}
	g := buildGraph(t, `void h(void) { for (;;) { } }`)
	if reports, _ := RunCov(g, sm); len(reports) != 0 {
		t.Fatalf("reports: %v", reports)
	}
}

func TestSwitchDispatchStates(t *testing.T) {
	// Each switch arm independently advances the SM; the merged exit
	// carries all resulting states.
	free := mkPattern(t, "DEC_DB_REF(b);", map[string]string{"b": ""})
	sm := &SM{
		Name:  "sw",
		Start: "has",
		Rules: []*Rule{
			{State: "has", Patterns: []Pattern{free}, Target: "no"},
			{State: "no", Patterns: []Pattern{free}, Tag: "df",
				Action: func(c *Ctx) { c.Report("double free") }},
		},
		AtExit: func(c *Ctx) {
			if c.State == "has" {
				c.Report("leak")
			}
		},
	}
	g := buildGraph(t, `
void h(int op) {
	switch (op) {
	case 1:
		DEC_DB_REF(0);
		break;
	case 2:
		break;
	default:
		DEC_DB_REF(0);
	}
}`)
	reports, _ := RunCov(g, sm)
	// case 2 leaks; cases 1 and default are fine.
	if len(reports) != 1 || !strings.Contains(reports[0].Msg, "leak") {
		t.Fatalf("reports: %v", reports)
	}
}

func TestSwitchFallthroughDoubleFree(t *testing.T) {
	free := mkPattern(t, "DEC_DB_REF(b);", map[string]string{"b": ""})
	sm := &SM{
		Name:  "sw2",
		Start: "has",
		Rules: []*Rule{
			{State: "has", Patterns: []Pattern{free}, Target: "no"},
			{State: "no", Patterns: []Pattern{free}, Tag: "df",
				Action: func(c *Ctx) { c.Report("double free") }},
		},
	}
	g := buildGraph(t, `
void h(int op) {
	switch (op) {
	case 1:
		DEC_DB_REF(0);
	case 2:
		DEC_DB_REF(0); /* reached by fallthrough from case 1: double free */
		break;
	}
}`)
	reports, _ := RunCov(g, sm)
	if len(reports) != 1 {
		t.Fatalf("fallthrough path not explored: %v", reports)
	}
}

func TestGotoLoopTermination(t *testing.T) {
	// Backward gotos form cycles the configuration-set executor must
	// survive.
	g := buildGraph(t, `
void h(int n) {
	int a;
	int b;
top:
	MISCBUS_READ_DB(a, b);
	if (n > 0) {
		goto top;
	}
}`)
	reports, _ := RunCov(g, waitForDBSM(t))
	if len(reports) != 1 {
		t.Fatalf("reports: %v", reports)
	}
}

func TestDoWhileBodyChecked(t *testing.T) {
	g := buildGraph(t, `
void h(int n) {
	int a;
	int b;
	do {
		MISCBUS_READ_DB(a, b);
	} while (n > 0);
}`)
	if reports, _ := RunCov(g, waitForDBSM(t)); len(reports) != 1 {
		t.Fatalf("reports: %v", reports)
	}
}

func TestCommaOperatorEventsProcessed(t *testing.T) {
	g := buildGraph(t, `
void h(void) {
	int a;
	int b;
	int v;
	v = (WAIT_FOR_DB_FULL(a), MISCBUS_READ_DB(a, b));
}`)
	// Both calls live in one statement event. The wait rule fires
	// first (rule order), transitioning to stop before the read rule
	// is consulted — a single event advances the SM at most one step,
	// matching the paper's one-transition-per-event model.
	reports, _ := RunCov(g, waitForDBSM(t))
	if len(reports) != 0 {
		t.Fatalf("reports: %v", reports)
	}
}

func TestFirstRuleWinsWithinEvent(t *testing.T) {
	// When two rules in the same state match one event, the first
	// listed rule fires.
	any := map[string]string{"x": ""}
	sm := &SM{
		Name:  "order",
		Start: "s",
		Rules: []*Rule{
			{State: "s", Patterns: []Pattern{mkPattern(t, "f(x);", any)}, Tag: "first",
				Action: func(c *Ctx) { c.Report("first") }},
			{State: "s", Patterns: []Pattern{mkPattern(t, "f(1);", nil)}, Tag: "second",
				Action: func(c *Ctx) { c.Report("second") }},
		},
	}
	g := buildGraph(t, `void h(void) { f(1); }`)
	reports, _ := RunCov(g, sm)
	if len(reports) != 1 || reports[0].Msg != "first" {
		t.Fatalf("reports: %v", reports)
	}
}

func TestStateSpecificBeatsAll(t *testing.T) {
	any := map[string]string{"x": ""}
	sm := &SM{
		Name:  "prio",
		Start: "s",
		Rules: []*Rule{
			{State: All, Patterns: []Pattern{mkPattern(t, "f(x);", any)}, Tag: "all",
				Action: func(c *Ctx) { c.Report("all") }},
			{State: "s", Patterns: []Pattern{mkPattern(t, "f(x);", any)}, Tag: "specific",
				Action: func(c *Ctx) { c.Report("specific") }},
		},
	}
	g := buildGraph(t, `void h(void) { f(2); }`)
	reports, _ := RunCov(g, sm)
	if len(reports) != 1 || reports[0].Msg != "specific" {
		t.Fatalf("state-specific rules must be consulted before 'all': %v", reports)
	}
}

func TestEmptyFunctionNoPanic(t *testing.T) {
	g := buildGraph(t, `void h(void) { }`)
	leaked := false
	sm := &SM{Name: "e", Start: "s", AtExit: func(c *Ctx) { leaked = true }}
	RunCov(g, sm)
	if !leaked {
		t.Error("at-exit did not run for an empty function")
	}
}
