package sched

import (
	"sync"
	"testing"

	"flashmc/internal/cc/token"
	"flashmc/internal/depot"
	"flashmc/internal/engine"
)

// TestRunLedger: entries append in order, round-trip by id, and
// DiffRuns attributes appeared/disappeared reports and perf deltas.
func TestRunLedger(t *testing.T) {
	d, err := depot.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep := func(msg string) engine.Report {
		return engine.Report{SM: "lock", Rule: "double-lock", Fn: "f", Msg: msg,
			Trace: engine.Witness(token.Pos{}, "lock", msg)}
	}
	a := &RunEntry{RequestFP: "req", ProgramFP: "prog", ReportHash: "h1",
		Reports: []engine.Report{rep("one"), rep("two")},
		Hits:    3, Misses: 1, ElapsedUS: 100,
		Decisions: map[string]int{DecisionHit: 3, DecisionNew: 1}}
	if err := AppendRun(d, a); err != nil {
		t.Fatal(err)
	}
	b := &RunEntry{RequestFP: "req", ProgramFP: "prog", ReportHash: "h2",
		Reports: []engine.Report{rep("two"), rep("three")},
		Hits:    4, Misses: 0, ElapsedUS: 60,
		Decisions: map[string]int{DecisionHit: 4}}
	if err := AppendRun(d, b); err != nil {
		t.Fatal(err)
	}
	if a.ID == "" || b.ID == "" || a.ID == b.ID {
		t.Fatalf("ids not assigned uniquely: %q %q", a.ID, b.ID)
	}

	ids := ListRuns(d)
	if len(ids) != 2 || ids[0] != a.ID || ids[1] != b.ID {
		t.Fatalf("index wrong: %v", ids)
	}
	got, ok := GetRun(d, a.ID)
	if !ok || got.ReportHash != "h1" || len(got.Reports) != 2 {
		t.Fatalf("entry round-trip wrong: %+v", got)
	}
	if line := got.DecisionLine(); line != "hit=3 new=1 vb=0 oc=0 dep=0 ev=0" {
		t.Fatalf("decision line wrong: %q", line)
	}

	// An entry written by an older depot may carry a decision reason
	// this code no longer produces ("remote"); it still decodes and
	// renders, the unknown reason ignored.
	if err := d.Put(runKey("20250101T000000Z-0123456789ab"), []byte(`{"id":"20250101T000000Z-0123456789ab","report_hash":"h0",`+
		`"request_fp":"req","hits":3,"misses":2,"decisions":{"hit":3,"remote":2}}`)); err != nil {
		t.Fatal(err)
	}
	legacy, ok := GetRun(d, "20250101T000000Z-0123456789ab")
	if !ok || legacy.Decisions["remote"] != 2 {
		t.Fatalf("legacy entry did not decode: %+v", legacy)
	}
	if line := legacy.DecisionLine(); line != "hit=3 new=0 vb=0 oc=0 dep=0 ev=0" {
		t.Fatalf("legacy decision line wrong: %q", line)
	}

	diff := DiffRuns(a, b)
	if diff.Identical || !diff.SameRequest {
		t.Fatalf("diff flags wrong: %+v", diff)
	}
	if len(diff.Appeared) != 1 || diff.Appeared[0].Msg != "three" {
		t.Fatalf("appeared wrong: %+v", diff.Appeared)
	}
	if len(diff.Disappeared) != 1 || diff.Disappeared[0].Msg != "one" {
		t.Fatalf("disappeared wrong: %+v", diff.Disappeared)
	}
	if diff.ElapsedDeltaUS != -40 || diff.HitDelta != 1 || diff.MissDelta != -1 {
		t.Fatalf("perf deltas wrong: %+v", diff)
	}
	if len(diff.Appeared[0].Trace) == 0 {
		t.Fatal("diff lost the witness trace")
	}

	// Identical runs diff empty.
	self := DiffRuns(b, b)
	if !self.Identical || len(self.Appeared)+len(self.Disappeared) != 0 {
		t.Fatalf("self-diff not empty: %+v", self)
	}
}

// TestListRunsSurvivesLostIndexSlot replays the cross-process append
// race the package comment describes: ledgerMu only serializes one
// process, so two appenders in different processes each read the same
// index snapshot and the second write overwrites the first's slot.
// The entry artifact itself survives; before the fix, ListRuns read
// only the index and the orphaned run vanished from every listing and
// diff. The race is staged deterministically — both appenders read the
// (empty) index before either writes it back — so the index provably
// holds one id while two entries exist.
func TestListRunsSurvivesLostIndexSlot(t *testing.T) {
	d, err := depot.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	entries := []*RunEntry{
		{ID: "20260101T000001Z-aaaaaaaaaaaa", ReportHash: "h1", RequestFP: "req"},
		{ID: "20260101T000002Z-bbbbbbbbbbbb", ReportHash: "h2", RequestFP: "req"},
	}
	var ready, done sync.WaitGroup
	ready.Add(len(entries))
	done.Add(len(entries))
	gate := make(chan struct{})
	for _, e := range entries {
		e := e
		go func() {
			defer done.Done()
			// The appender's body, minus ledgerMu: store the entry, read
			// the index, then (after the barrier) write it back extended.
			if err := d.PutJSON(runKey(e.ID), e); err != nil {
				t.Error(err)
			}
			var ids []string
			d.GetJSON(runKey(runIndexSource), &ids)
			ready.Done()
			<-gate
			if err := d.PutJSON(runKey(runIndexSource), append(ids, e.ID)); err != nil {
				t.Error(err)
			}
		}()
	}
	ready.Wait()
	close(gate)
	done.Wait()

	var raw []string
	d.GetJSON(runKey(runIndexSource), &raw)
	if len(raw) != 1 {
		t.Fatalf("race not reproduced: index holds %v", raw)
	}
	got := ListRuns(d)
	if len(got) != 2 || got[0] != entries[0].ID || got[1] != entries[1].ID {
		t.Fatalf("ListRuns lost an entry: %v", got)
	}
	for _, e := range entries {
		if _, ok := GetRun(d, e.ID); !ok {
			t.Fatalf("entry %s unreachable", e.ID)
		}
	}
}
