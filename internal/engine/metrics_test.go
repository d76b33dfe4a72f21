package engine

import "testing"

// TestVisitAndEvalCounts pins the two work counters to their
// definitions on a hand-traced run: engine_node_visits_total counts one
// visit per transfer on a statement or branch node per configuration;
// engine_pattern_evals_total counts one eval per rule alternative
// considered and one per branch-cond pattern considered, whether the
// node signature lets it reach match.First or rejects it first.
func TestVisitAndEvalCounts(t *testing.T) {
	g := buildGraph(t, `
void fn(void) {
	if (f(1))
		B(1);
	C();
}`)
	w := map[string]string{"x": "scalar"}
	sm := &SM{
		Name:  "counts",
		Start: "s",
		Rules: []*Rule{
			{State: "s", Patterns: []Pattern{mkPattern(t, "A(x);", w), mkPattern(t, "B(x);", w)}, Target: "t"},
			{State: All, Patterns: []Pattern{mkPattern(t, "C();", nil)}},
		},
		Cond: []*CondRule{{State: "s", Pattern: mkExprPattern(t, "f(x)", w), TrueTarget: "t"}},
	}
	v0, e0 := mVisits.Value(), mEvals.Value()
	RunCov(g, sm)
	visits, evals := mVisits.Value()-v0, mEvals.Value()-e0
	// The worklist reaches the event nodes as follows (join, entry and
	// exit nodes have no event and count nothing):
	//   branch f(1)  in {s}:     1 visit, 3 evals (A, B, C)
	//   false edge   s:          1 cond eval, state kept
	//   C();         in {s}:     1 visit, 3 evals (A, B, C fires)
	//   true edge    s:          1 cond eval, s -> t
	//   B(1);        in {t}:     1 visit, 1 eval (C)
	//   C();         in {s, t}:  2 visits, 3 + 1 evals
	if visits != 5 {
		t.Errorf("engine_node_visits_total delta = %v, want 5", visits)
	}
	if evals != 13 {
		t.Errorf("engine_pattern_evals_total delta = %v, want 13", evals)
	}
}
