package sched

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"flashmc/internal/depot"
	"flashmc/internal/obs"
)

func TestRunParallelism(t *testing.T) {
	// With enough workers, independent tasks overlap: peak in-flight
	// count must exceed 1.
	var inflight, peak atomic.Int32
	barrier := make(chan struct{})
	var tasks []*task
	for i := 0; i < 4; i++ {
		tasks = append(tasks, &task{ID: string(rune('a' + i)), Run: func() {
			n := inflight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			if n == 4 {
				close(barrier) // all four running at once
			}
			<-barrier
			inflight.Add(-1)
		}})
	}
	if st := pass(4, nil, tasks); st.tasks != 4 {
		t.Fatalf("ran %d tasks, want 4", st.tasks)
	}
	if peak.Load() != 4 {
		t.Fatalf("peak parallelism %d, want 4", peak.Load())
	}
}

// TestDuplicateTaskIDsRefused: a task ID used twice — here by a spec
// that lists a handler twice, so two lane tasks share it — fails the
// check before any pass runs.
func TestDuplicateTaskIDsRefused(t *testing.T) {
	noop := func() {}
	if err := uniqueIDs([]*task{{ID: "a", Run: noop}}, []*task{{ID: "a", Run: noop}}); err == nil {
		t.Fatal("duplicate id across passes not detected")
	}
	p, prog := loadProto(t, nil)
	spec := *p.Spec
	spec.Hardware = append(append([]string(nil), spec.Hardware...), spec.Hardware[0])
	d, _ := depot.Open("")
	_, err := (&Analyzer{Depot: d}).Check(Request{Prog: prog, Spec: &spec, Jobs: FlashJobs(&spec)})
	if err == nil || !strings.Contains(err.Error(), "duplicate task") {
		t.Fatalf("err = %v, want a duplicate task error", err)
	}
	if st := d.Stats(); st.Entries != 0 {
		t.Fatalf("refused check wrote %d artifacts", st.Entries)
	}
}

// TestCheckPassOrder pins Check's three passes and the span
// annotation on a traced run: every summary span ends before the link
// span starts and every lane span starts after it ends; on one worker,
// where spans are recorded in claim order, the whole-program tasks
// lead the report pass; every cached task's span carries its cache
// decision, and those decisions add up to Stats.Decisions.
func TestCheckPassOrder(t *testing.T) {
	p, prog := loadProto(t, nil)
	rank := map[string]int{"sum": 0, "glob": 1, "sm": 2, "lanes": 2}
	for _, workers := range []int{1, 4} {
		tr := obs.NewTracer()
		res, err := (&Analyzer{Workers: workers, Tracer: tr}).Check(Request{Prog: prog, Spec: p.Spec, Jobs: FlashJobs(p.Spec)})
		if err != nil {
			t.Fatal(err)
		}
		var link obs.Event
		var tasks []obs.Event
		for _, e := range tr.Events() {
			switch e.Name {
			case "check":
			case "link":
				link = e
			default:
				tasks = append(tasks, e)
			}
		}
		if link.Name == "" || len(tasks)+1 != res.Stats.Tasks {
			t.Fatalf("-j %d: link span %v and %d other task spans, want %d tasks", workers, link.Name != "", len(tasks), res.Stats.Tasks)
		}
		kinds := map[string]int{}
		decisions := map[string]int{}
		last := 0
		for _, e := range tasks {
			kind, _, _ := strings.Cut(e.Name, ":")
			kinds[kind]++
			if kind == "sum" && e.TS+e.Dur > link.TS {
				t.Errorf("-j %d: %s ends at %.1fµs, after link starts at %.1fµs", workers, e.Name, e.TS+e.Dur, link.TS)
			}
			if kind == "lanes" && e.TS < link.TS+link.Dur {
				t.Errorf("-j %d: %s starts at %.1fµs, before link ends at %.1fµs", workers, e.Name, e.TS, link.TS+link.Dur)
			}
			if workers == 1 && rank[kind] < last {
				t.Errorf("-j 1: %s runs after a later-pass task", e.Name)
			}
			last = rank[kind]
			reason, ok := e.Args["cache"].(string)
			if !ok {
				t.Fatalf("-j %d: span %s has no cache arg: %v", workers, e.Name, e.Args)
			}
			decisions[reason]++
		}
		if kinds["sum"] != len(prog.Fns) || kinds["glob"] == 0 || kinds["sm"] == 0 || kinds["lanes"] == 0 {
			t.Fatalf("-j %d: spans by kind %v", workers, kinds)
		}
		if !reflect.DeepEqual(decisions, res.Stats.Decisions) {
			t.Fatalf("-j %d: span decisions %v, Stats.Decisions %v", workers, decisions, res.Stats.Decisions)
		}
	}
}

// TestUnwritableDepotKeepsReports: a depot whose every shard path is
// a regular file fails every write. The check still returns the
// reports an in-memory run produces, and each failed write is counted.
func TestUnwritableDepotKeepsReports(t *testing.T) {
	root := t.TempDir()
	for i := 0; i < 256; i++ {
		if err := os.WriteFile(filepath.Join(root, fmt.Sprintf("%02x", i)), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d, err := depot.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	p, prog := loadProto(t, nil)
	req := Request{Prog: prog, Spec: p.Spec, Jobs: FlashJobs(p.Spec)}
	want, err := (&Analyzer{}).Check(req)
	if err != nil {
		t.Fatal(err)
	}
	putErrors := obs.Default.Counter("depot_put_errors_total", "")
	before := putErrors.Value()
	got, err := (&Analyzer{Depot: d}).Check(req)
	if err != nil {
		t.Fatalf("check with an unwritable depot failed: %v", err)
	}
	if string(render(got.Reports)) != string(render(want.Reports)) {
		t.Fatalf("reports differ from the in-memory run:\n%s\nwant:\n%s", render(got.Reports), render(want.Reports))
	}
	if putErrors.Value() <= before {
		t.Fatal("depot_put_errors_total did not advance")
	}
}
