package engine

import (
	"encoding/json"
	"strings"
	"testing"

	"flashmc/internal/cc/ast"
)

func TestCoverageCounts(t *testing.T) {
	g := buildGraph(t, `
void handler(void) {
	int a;
	int b;
	MISCBUS_READ_DB(a, b);
	WAIT_FOR_DB_FULL(a);
}`)
	reports, cov := RunCov(g, waitForDBSM(t))
	if len(reports) != 1 {
		t.Fatalf("reports: %v", reports)
	}
	if cov.SM != "wait_for_db" || cov.Fn != "handler" {
		t.Errorf("identity: %+v", cov)
	}
	if cov.Rules["race"] != 1 {
		t.Errorf("race rule count: %v", cov.Rules)
	}
	if cov.Patterns["race/alt0"] != 1 {
		t.Errorf("pattern alternative: %v", cov.Patterns)
	}
	if cov.States["start"] == 0 {
		t.Errorf("start state never admitted: %v", cov.States)
	}
	if cov.Empty() {
		t.Error("coverage reported Empty after rule fired")
	}
}

func TestCoverageSkippedFunction(t *testing.T) {
	g := buildGraph(t, `void other(void) { int a; }`)
	sm := waitForDBSM(t)
	sm.StartFor = func(fn *ast.FuncDecl) string { return "" }
	reports, cov := RunCov(g, sm)
	if len(reports) != 0 {
		t.Fatalf("reports: %v", reports)
	}
	if cov == nil || !cov.Empty() {
		t.Errorf("skipped function should yield empty coverage: %+v", cov)
	}
}

func TestCoverageCondRules(t *testing.T) {
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
	if (conditional_free(0)) {
		use_buffer(0);
	} else {
		use_buffer(0);
	}
}`)
	_, cov := RunCov(g, sm)
	// The condition matches on both outgoing edges of the branch.
	if cov.Conds["cond#0"] != 2 {
		t.Errorf("cond firings: %v", cov.Conds)
	}
	if cov.Rules["uaf"] != 1 {
		t.Errorf("uaf firings: %v", cov.Rules)
	}
}

func TestCoverageJSONExcludesTiming(t *testing.T) {
	g := buildGraph(t, `
void handler(void) {
	int a;
	int b;
	MISCBUS_READ_DB(a, b);
}`)
	_, cov := RunCov(g, waitForDBSM(t))
	raw, err := json.Marshal(cov)
	if err != nil {
		t.Fatal(err)
	}
	for _, banned := range []string{"RuleSeconds", "Elapsed", "elapsed", "seconds"} {
		if strings.Contains(string(raw), banned) {
			t.Errorf("timing leaked into JSON: %s", raw)
		}
	}
	var back Coverage
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Rules["race"] != cov.Rules["race"] || back.SM != cov.SM {
		t.Errorf("round trip lost counts: %+v vs %+v", back, cov)
	}
}

func TestRuleKeyMatchesUntaggedLabel(t *testing.T) {
	sm := waitForDBSM(t)
	// Rule 0 has no tag: key is "state#index", the label lint uses.
	if got := RuleKey(sm, 0); got != "start#0" {
		t.Errorf("untagged key: %q", got)
	}
	if got := RuleKey(sm, 1); got != "race" {
		t.Errorf("tagged key: %q", got)
	}
	if got := CondKey(sm, 3); got != "cond#3" {
		t.Errorf("cond key: %q", got)
	}
}

func TestReportCoverage(t *testing.T) {
	cov := ReportCoverage("exec_restrict", []Report{
		{Rule: "deprecated"}, {Rule: "deprecated"}, {Rule: ""},
	})
	if cov.Rules["deprecated"] != 2 {
		t.Errorf("report coverage: %v", cov.Rules)
	}
	if len(cov.Rules) != 1 {
		t.Errorf("empty rule keys should be skipped: %v", cov.Rules)
	}
}
