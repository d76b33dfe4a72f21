package engine

import (
	"strings"
	"testing"
)

// TestSameStateRuleDeclarationOrder pins down the semantics the
// shadowed-rule lint (package lint) documents: when several rules of
// the same state match one event, the engine fires the one declared
// first and only that one. Checkers rely on this to write
// specific-before-general rule pairs (e.g. the directory checker's
// DIR_LOAD(DIR_ADDR(x)) before DIR_LOAD(x)); reordering such rules
// changes behaviour, which is exactly what the lint warns about.
func TestSameStateRuleDeclarationOrder(t *testing.T) {
	specific := mkPattern(t, "DIR_LOAD(DIR_ADDR(x));", map[string]string{"x": ""})
	general := mkPattern(t, "DIR_LOAD(x);", map[string]string{"x": ""})

	build := func(first, second Pattern, firstTag, secondTag string) *SM {
		report := func(tag string) func(*Ctx) {
			return func(c *Ctx) { c.Report("%s", tag) }
		}
		return &SM{
			Name:  "order",
			Start: "s",
			Rules: []*Rule{
				{State: "s", Patterns: []Pattern{first}, Tag: firstTag, Action: report(firstTag)},
				{State: "s", Patterns: []Pattern{second}, Tag: secondTag, Action: report(secondTag)},
			},
		}
	}

	g := buildGraph(t, `
void h(unsigned a) {
	DIR_LOAD(DIR_ADDR(a));
}`)

	// Specific first: the specific rule fires, the general one is
	// masked for this event.
	reports, _ := RunCov(g, build(specific, general, "specific", "general"))
	if len(reports) != 1 || !strings.Contains(reports[0].Msg, "specific") {
		t.Fatalf("specific-first: got %v, want exactly the specific rule", reports)
	}

	// General first: the general rule masks the specific one — rule
	// order within a state is load-bearing.
	reports, _ = RunCov(g, build(general, specific, "general", "specific"))
	if len(reports) != 1 || !strings.Contains(reports[0].Msg, "general") {
		t.Fatalf("general-first: got %v, want exactly the general rule", reports)
	}
}

// TestAllStateRulesRunAfterStateRules pins the other ordering clause
// (paper §5): state-specific rules are tried before all-state rules.
func TestAllStateRulesRunAfterStateRules(t *testing.T) {
	pat := mkPattern(t, "DEC_DB_REF(x);", map[string]string{"x": ""})
	sm := &SM{
		Name:  "order-all",
		Start: "s",
		Rules: []*Rule{
			{State: All, Patterns: []Pattern{pat}, Tag: "all",
				Action: func(c *Ctx) { c.Report("all") }},
			{State: "s", Patterns: []Pattern{pat}, Tag: "state",
				Action: func(c *Ctx) { c.Report("state") }},
		},
	}
	g := buildGraph(t, `
void h(void) {
	DEC_DB_REF(0);
}`)
	reports, _ := RunCov(g, sm)
	if len(reports) != 1 || !strings.Contains(reports[0].Msg, "state") {
		t.Fatalf("got %v, want the state rule to win over the all rule", reports)
	}
}
