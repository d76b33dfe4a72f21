package engine

import (
	"testing"
)

// pruneSM is a two-state free/no-free machine used to observe path
// feasibility through duplicated conditions.
func pruneSM(t *testing.T, correlate bool) *SM {
	free := mkPattern(t, "DEC_DB_REF(b);", map[string]string{"b": ""})
	sm := &SM{
		Name:              "prune",
		Start:             "has",
		CorrelateBranches: correlate,
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
	return sm
}

const dupCondSrc = `
void h(int m) {
	if (m) {
		DEC_DB_REF(0);
	}
	if (m) {
		;
	} else {
		DEC_DB_REF(0);
	}
}`

func TestDuplicatedConditionWithoutPruning(t *testing.T) {
	g := buildGraph(t, dupCondSrc)
	reports, _ := RunCov(g, pruneSM(t, false))
	// Naive analysis explores the two impossible combinations:
	// (true,false-arm) double-frees, (false,true-arm) leaks.
	if len(reports) != 2 {
		t.Fatalf("reports: %v", reports)
	}
}

func TestDuplicatedConditionWithPruning(t *testing.T) {
	g := buildGraph(t, dupCondSrc)
	reports, _ := RunCov(g, pruneSM(t, true))
	if len(reports) != 0 {
		t.Fatalf("pruner left reports: %v", reports)
	}
}

func TestPruningRespectsReassignment(t *testing.T) {
	// The condition variable is written between the branches, so the
	// second branch is genuinely independent: pruning must NOT drop
	// the double-free on the now-feasible path.
	src := `
void h(int m) {
	if (m) {
		DEC_DB_REF(0);
	}
	m = m + 1;
	if (m) {
		;
	} else {
		DEC_DB_REF(0);
	}
}`
	g := buildGraph(t, src)
	with, _ := RunCov(g, pruneSM(t, true))
	without, _ := RunCov(g, pruneSM(t, false))
	if len(with) != len(without) {
		t.Fatalf("pruning changed results across a reassignment: with=%v without=%v", with, without)
	}
	if len(with) != 2 {
		t.Fatalf("reports: %v", with)
	}
}

func TestPruningHandlesNegation(t *testing.T) {
	src := `
void h(int m) {
	if (m) {
		DEC_DB_REF(0);
	}
	if (!m) {
		DEC_DB_REF(0);
	}
}`
	g := buildGraph(t, src)
	reports, _ := RunCov(g, pruneSM(t, true))
	// Feasible paths free exactly once; with pruning there must be no
	// double free and no leak.
	if len(reports) != 0 {
		t.Fatalf("reports: %v", reports)
	}
}

func TestPruningIgnoresComplexConditions(t *testing.T) {
	// Non-identifier conditions are not correlated (key-space bound);
	// behaviour must match the unpruned engine.
	src := `
void h(int m) {
	if (m > 2) {
		DEC_DB_REF(0);
	}
	if (m > 2) {
		;
	} else {
		DEC_DB_REF(0);
	}
}`
	g := buildGraph(t, src)
	with, _ := RunCov(g, pruneSM(t, true))
	without, _ := RunCov(g, pruneSM(t, false))
	if len(with) != len(without) || len(with) != 2 {
		t.Fatalf("with=%v without=%v", with, without)
	}
}
