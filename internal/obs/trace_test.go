package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestSetProcessNamesLane: SetProcess stamps subsequent events with
// the pid and records exactly one process_name metadata event per pid.
func TestSetProcessNamesLane(t *testing.T) {
	tr := NewTracer()
	tr.SetProcess(7, "mcheckd")
	tr.SetProcess(7, "mcheckd") // dedup: second call records nothing new
	sp := tr.StartSpan("work", 3)
	time.Sleep(time.Millisecond)
	sp.End()

	events := tr.Events()
	metas, spans := 0, 0
	for _, e := range events {
		switch e.Ph {
		case "M":
			metas++
			if e.Name != "process_name" || e.PID != 7 {
				t.Fatalf("metadata event = %+v", e)
			}
			if name, _ := e.Args["name"].(string); name != "mcheckd" {
				t.Fatalf("process_name args = %v", e.Args)
			}
		case "X":
			spans++
			if e.PID != 7 || e.TID != 3 {
				t.Fatalf("span lane = (pid=%d,tid=%d), want (7,3)", e.PID, e.TID)
			}
		}
	}
	if metas != 1 || spans != 1 {
		t.Fatalf("metas=%d spans=%d, want 1 and 1", metas, spans)
	}
}

// TestWriteTraceJSONSortsLanes: spans are recorded when they end, so
// a parent lands after the children it encloses and lanes interleave
// in completion order. The raw recording order fails validation;
// WriteTraceJSON must group events per (pid, tid) with monotone
// timestamps so the written trace passes.
func TestWriteTraceJSONSortsLanes(t *testing.T) {
	tr := NewTracer()
	tr.SetProcess(1, "mcheckd")
	check := tr.StartSpan("check", 0)
	time.Sleep(time.Millisecond)
	a := tr.StartSpan("a", 1)
	time.Sleep(time.Millisecond)
	b := tr.StartSpan("b", 2)
	time.Sleep(time.Millisecond)
	inner := tr.StartSpan("inner", 0)
	time.Sleep(time.Millisecond)
	// Reverse arrival: the innermost span and the higher lane finish
	// first.
	inner.End()
	b.End()
	a.End()
	check.End()

	raw, err := json.Marshal(tr.Events())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateTraceStats(bytes.NewReader(raw)); err == nil {
		t.Fatal("recording order validated; the test no longer exercises sorting")
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	stats, err := ValidateTraceStats(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("written trace invalid: %v", err)
	}
	want := []ProcessStats{{PID: 1, Name: "mcheckd", Spans: 4}}
	if stats.Spans != 4 || len(stats.Processes) != 1 || stats.Processes[0] != want[0] {
		t.Fatalf("stats = %+v, want 4 spans on %+v", stats, want)
	}
	var file traceFile
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, e := range file.TraceEvents {
		order = append(order, e.Name)
	}
	if got := strings.Join(order, " "); got != "process_name check inner a b" {
		t.Fatalf("written order = %q, want lanes grouped and parents first", got)
	}
}

// TestValidateTraceStatsRejects: the lane discipline is enforced —
// out-of-order timestamps within one (pid, tid) lane and negative
// timestamps both fail, while the same timestamps on different lanes
// pass.
func TestValidateTraceStatsRejects(t *testing.T) {
	bad := `[{"name":"a","ph":"X","ts":100,"dur":1,"pid":1,"tid":1},
	        {"name":"b","ph":"X","ts":50,"dur":1,"pid":1,"tid":1}]`
	if _, err := ValidateTraceStats(strings.NewReader(bad)); err == nil {
		t.Fatal("out-of-order lane timestamps validated")
	}

	neg := `[{"name":"a","ph":"X","ts":-5,"dur":1,"pid":1,"tid":1}]`
	if _, err := ValidateTraceStats(strings.NewReader(neg)); err == nil {
		t.Fatal("negative timestamp validated")
	}

	ok := `[{"name":"a","ph":"X","ts":100,"dur":1,"pid":1,"tid":1},
	       {"name":"b","ph":"X","ts":50,"dur":1,"pid":2,"tid":1}]`
	if _, err := ValidateTraceStats(strings.NewReader(ok)); err != nil {
		t.Fatalf("cross-lane ordering rejected: %v", err)
	}

	// Metadata events are exempt from the monotonicity walk (they carry
	// ts 0 wherever they sort) but still name processes.
	meta := `[{"name":"process_name","ph":"M","pid":9,"args":{"name":"w"}},
	         {"name":"a","ph":"X","ts":1,"dur":1,"pid":9,"tid":0}]`
	stats, err := ValidateTraceStats(strings.NewReader(meta))
	if err != nil {
		t.Fatalf("metadata trace rejected: %v", err)
	}
	if len(stats.Processes) != 1 || stats.Processes[0].Name != "w" {
		t.Fatalf("processes = %+v", stats.Processes)
	}
}
