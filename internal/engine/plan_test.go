package engine

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

const planSource = `
void h(void) {
	int a;
	int b;
	read_db(a, b);
	if (ready(a))
		b = 2;
	wait_db(a);
	if (busy(a))
		b = 1;
}`

// planSM is a two-rule machine whose coverage keys depend on rule
// order: its rules are untagged, so they are keyed "state#i". extra
// adds rules that never match, alternating between the start state
// and All, so every event tries them.
func planSM(t *testing.T, extra int) *SM {
	w := map[string]string{"addr": "scalar", "buf": "scalar"}
	sm := &SM{
		Name:  "plan",
		Start: "start",
		Track: []string{"addr"},
		Rules: []*Rule{
			{State: "start", Patterns: []Pattern{mkPattern(t, "read_db(addr, buf);", w)}, Target: "read"},
			{State: "read", Patterns: []Pattern{mkPattern(t, "wait_db(addr);", w)}, Target: "start",
				Action: func(c *Ctx) { c.Report("wait on %s in state %s", c.Bound("addr"), c.State) }},
		},
		Cond: []*CondRule{{State: "read", Pattern: mkExprPattern(t, "ready(addr)", w), TrueTarget: "ready"}},
	}
	for i := 0; i < extra; i++ {
		state := "start"
		if i%2 == 1 {
			state = All
		}
		sm.Rules = append(sm.Rules, &Rule{State: state,
			Patterns: []Pattern{mkPattern(t, fmt.Sprintf("never_%d(addr);", i), w)}})
	}
	return sm
}

// TestRunnerPlanFollowsRuleEdits: the plan an SM keeps from its first
// run follows in-place edits to its rules: a rule replaced by one of
// the same state and tag, two rules swapped, a rule retagged or moved
// to another state, a cond rule appended. After each edit, a run of
// the edited SM reports and covers exactly what a freshly built SM with
// the same edits does; runs of one SM from several goroutines at once
// agree (go test -race checks the plan's hand-off); and a repeat run's
// allocations do not grow with the number of rules.
func TestRunnerPlanFollowsRuleEdits(t *testing.T) {
	g := buildGraph(t, planSource)
	w := map[string]string{"addr": "scalar", "buf": "scalar"}
	edits := []struct {
		name string
		do   func(*SM)
	}{
		{"replace", func(sm *SM) {
			sm.Rules[0] = &Rule{State: "start", Patterns: sm.Rules[0].Patterns, Target: "read",
				Action: func(c *Ctx) { c.Report("read of %s", c.Bound("addr")) }}
		}},
		{"swap", func(sm *SM) { sm.Rules[0], sm.Rules[1] = sm.Rules[1], sm.Rules[0] }},
		{"retag", func(sm *SM) { sm.Rules[0].Tag = "wait" }},
		{"restate", func(sm *SM) { sm.Rules[0].State = All }},
		{"append cond", func(sm *SM) {
			sm.Cond = append(sm.Cond, &CondRule{State: All, Pattern: mkExprPattern(t, "busy(addr)", w), FalseTarget: "idle"})
		}},
	}

	t.Run("edits", func(t *testing.T) {
		sm := planSM(t, 0)
		runOnce(t, g, sm)
		for i, e := range edits {
			e.do(sm)
			fresh := planSM(t, 0)
			for _, prev := range edits[:i+1] {
				prev.do(fresh)
			}
			want := runOnce(t, g, fresh)
			for run := 0; run < 2; run++ {
				if got := runOnce(t, g, sm); !reflect.DeepEqual(got, want) {
					t.Fatalf("after %s, run %d:\n got %+v\nwant %+v", e.name, run, got, want)
				}
			}
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		want := runOnce(t, g, planSM(t, 0))
		if len(want.reports) == 0 {
			t.Fatal("the plan machine reports nothing; the comparison is vacuous")
		}
		sm := planSM(t, 0)
		const goroutines, rounds = 8, 5
		got := make([][]runResult, goroutines)
		var wg sync.WaitGroup
		for w := 0; w < goroutines; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					reports, cov := RunCov(g, sm)
					got[w] = append(got[w], runResult{reports, covJSON(t, cov)})
				}
			}(w)
		}
		wg.Wait()
		for w := range got {
			for r, res := range got[w] {
				if !reflect.DeepEqual(res, want) {
					t.Errorf("goroutine %d, round %d: got %+v, want %+v", w, r, res, want)
				}
			}
		}
	})

	t.Run("allocs", func(t *testing.T) {
		if raceEnabled {
			t.Skip("allocation counts are not meaningful under the race detector")
		}
		allocs := func(sm *SM) float64 {
			RunCov(g, sm)
			return testing.AllocsPerRun(50, func() { RunCov(g, sm) })
		}
		few, many := allocs(planSM(t, 0)), allocs(planSM(t, 38))
		t.Logf("allocations per run: %v with 2 rules, %v with 40", few, many)
		if many > few {
			t.Errorf("a run of a 40-rule SM allocates %v times, of a 2-rule SM %v: the plan is rebuilt per run", many, few)
		}
	})
}
