package sched

import (
	"bytes"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"flashmc/internal/depot"
	"flashmc/internal/obs"
)

// TestGCDuringWarmCheck sweeps the depot while warm checks stream
// artifacts out of it. A sweep racing a read turns hits into misses —
// which recompute — so every run must still produce the cold run's
// exact reports, and nothing may panic.
func TestGCDuringWarmCheck(t *testing.T) {
	d, err := depot.Open(filepath.Join(t.TempDir(), "depot"))
	if err != nil {
		t.Fatal(err)
	}
	a := &Analyzer{Depot: d}

	p, prog := loadProto(t, nil)
	cold, err := a.Check(Request{Prog: prog, Spec: p.Spec, Jobs: FlashJobs(p.Spec)})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := d.GC(0, 0); err != nil {
				t.Errorf("GC: %v", err)
				return
			}
		}
	}()

	for i := 0; i < 5; i++ {
		pi, progi := loadProto(t, nil)
		got, err := a.Check(Request{Prog: progi, Spec: pi.Spec, Jobs: FlashJobs(pi.Spec)})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !reflect.DeepEqual(cold.Reports, got.Reports) {
			t.Fatalf("run %d: reports diverged under concurrent GC", i)
		}
	}
	close(stop)
	wg.Wait()
}

// TestCheckRecordsTaskSpans pins the tracer wiring: a traced Check
// emits one span per executed task plus the enclosing check span, and
// the trace validates as Chrome trace_event JSON.
func TestCheckRecordsTaskSpans(t *testing.T) {
	tr := obs.NewTracer()
	a := &Analyzer{Tracer: tr}
	p, prog := loadProto(t, nil)
	res, err := a.Check(Request{Prog: prog, Spec: p.Spec, Jobs: FlashJobs(p.Spec)})
	if err != nil {
		t.Fatal(err)
	}
	events := tr.Events()
	// Every scheduled task plus the "check" span.
	if len(events) != res.Stats.Tasks+1 {
		t.Fatalf("events = %d, want %d tasks + 1", len(events), res.Stats.Tasks)
	}
	var sawCheck, sawTask bool
	for _, e := range events {
		if e.Name == "check" {
			sawCheck = true
		}
		if e.Name == "link" {
			sawTask = true
		}
	}
	if !sawCheck || !sawTask {
		t.Fatalf("missing check/link spans in %d events", len(events))
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateTraceStats(&buf); err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}
	if res.Stats.QueueWait < 0 {
		t.Fatalf("QueueWait = %v", res.Stats.QueueWait)
	}
}
