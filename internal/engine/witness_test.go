package engine

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"flashmc/internal/cc/token"
)

// checkWitness asserts the report-trace invariant: non-empty, final
// step at the report position.
func checkWitness(t *testing.T, r Report) {
	t.Helper()
	if len(r.Trace) == 0 {
		t.Fatalf("report %s has no witness trace", r)
	}
	last := r.Trace[len(r.Trace)-1]
	if last.Pos != r.Pos {
		t.Fatalf("final witness step at %s, report at %s", last.Pos, r.Pos)
	}
}

func TestWitnessTraceOnReport(t *testing.T) {
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
	r := reports[0]
	checkWitness(t, r)
	// The firing step precedes the synthesized final step and carries
	// the matched event text plus the wildcard bindings.
	if len(r.Trace) < 2 {
		t.Fatalf("trace = %+v, want firing step + final step", r.Trace)
	}
	fire := r.Trace[len(r.Trace)-2]
	if !strings.Contains(fire.Event, "MISCBUS_READ_DB") {
		t.Errorf("firing step event = %q", fire.Event)
	}
	if fire.Bindings["addr"] != "a" || fire.Bindings["buf"] != "b" {
		t.Errorf("firing step bindings = %v", fire.Bindings)
	}
	if fire.Rule != "race" {
		t.Errorf("firing step rule = %q", fire.Rule)
	}
	last := r.Trace[len(r.Trace)-1]
	if last.Event != r.Msg {
		t.Errorf("final step event = %q, want the report message", last.Event)
	}
}

func TestWitnessTraceRecordsTransitions(t *testing.T) {
	w := map[string]string{"b": "scalar"}
	sm := &SM{
		Name:  "leak",
		Start: "start",
		Track: []string{"b"},
		Rules: []*Rule{
			{State: "start", Patterns: []Pattern{mkPattern(t, "b = alloc();", w)},
				Target: "held", Tag: "alloc"},
			{State: "held", Patterns: []Pattern{mkPattern(t, "free(b);", w)},
				Target: "start", Tag: "free"},
		},
		AtExit: func(c *Ctx) {
			if c.State == "held" {
				c.Report("leaked %s", c.Bound("b"))
			}
		},
	}
	g := buildGraph(t, `
void handler(void) {
	int p;
	p = alloc();
}`)
	reports, _ := RunCov(g, sm)
	if len(reports) != 1 {
		t.Fatalf("reports: %v", reports)
	}
	r := reports[0]
	checkWitness(t, r)
	var sawTransition bool
	for _, s := range r.Trace {
		if s.From == "start" && s.To == "held" && s.Rule == "alloc" {
			sawTransition = true
		}
	}
	if !sawTransition {
		t.Fatalf("no start->held step in trace: %+v", r.Trace)
	}
}

func TestWitnessTraceCondRule(t *testing.T) {
	w := map[string]string{"b": "scalar"}
	sm := &SM{
		Name:  "condsm",
		Start: "start",
		Cond: []*CondRule{{
			State:       "start",
			Pattern:     mkExprPattern(t, "freed(b)", w),
			TrueTarget:  "gone",
			FalseTarget: "",
		}},
		Rules: []*Rule{
			{State: "gone", Patterns: []Pattern{mkPattern(t, "use(b);", w)},
				Tag: "use-after-free",
				Action: func(c *Ctx) {
					c.Report("use after free")
				}},
		},
	}
	g := buildGraph(t, `
void handler(void) {
	int p;
	if (freed(p)) {
		use(p);
	}
}`)
	reports, _ := RunCov(g, sm)
	if len(reports) != 1 {
		t.Fatalf("reports: %v", reports)
	}
	r := reports[0]
	checkWitness(t, r)
	var sawBranch bool
	for _, s := range r.Trace {
		if s.Rule == "cond" && strings.Contains(s.Event, "freed") && s.To == "gone" {
			sawBranch = true
		}
	}
	if !sawBranch {
		t.Fatalf("no branch-refinement step in trace: %+v", r.Trace)
	}
}

func TestWitnessDeterministic(t *testing.T) {
	// Two joining paths reach the same configuration; which path
	// donates the witness must not depend on map iteration order.
	src := `
void handler(void) {
	int a;
	int b;
	if (x) {
		y = 1;
	} else {
		y = 2;
	}
	MISCBUS_READ_DB(a, b);
}`
	g := buildGraph(t, src)
	sm := waitForDBSM(t)
	first, _ := RunCov(g, sm)
	for i := 0; i < 20; i++ {
		g2 := buildGraph(t, src)
		again, _ := RunCov(g2, waitForDBSM(t))
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d produced a different witness:\n%+v\nvs\n%+v", i, first, again)
		}
	}
}

func TestWitnessJSONRoundTrip(t *testing.T) {
	g := buildGraph(t, `
void handler(void) {
	int a;
	int b;
	MISCBUS_READ_DB(a, b);
	WAIT_FOR_DB_FULL(a);
}`)
	reports, _ := RunCov(g, waitForDBSM(t))
	raw, err := json.Marshal(reports)
	if err != nil {
		t.Fatal(err)
	}
	var back []Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reports, back) {
		t.Fatalf("reports changed across JSON round-trip:\n%+v\nvs\n%+v", reports, back)
	}
}

func TestWitnessHelper(t *testing.T) {
	pos := token.Pos{File: "f.c", Line: 3, Col: 1}
	tr := Witness(pos, "lane", "exceeds cache space")
	if len(tr) != 1 || tr[0].Pos != pos || tr[0].Rule != "lane" {
		t.Fatalf("Witness = %+v", tr)
	}
}

func TestRunPathsWitness(t *testing.T) {
	g := buildGraph(t, `
void handler(void) {
	int a;
	int b;
	MISCBUS_READ_DB(a, b);
	WAIT_FOR_DB_FULL(a);
}`)
	reports := RunPaths(g, waitForDBSM(t), 100)
	if len(reports) != 1 {
		t.Fatalf("reports: %v", reports)
	}
	checkWitness(t, reports[0])
}
