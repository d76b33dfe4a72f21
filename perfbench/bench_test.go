package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"flashmc/internal/depot"
	"flashmc/internal/flash"
	"flashmc/internal/sched"
)

var (
	setupOnce   sync.Once
	setupProtos []*proto
	setupErr    error
)

// testBench returns a bench over the set-up corpus (references
// computed and gated on Table 7 once per test binary).
func testBench(t *testing.T, workload string) *bench {
	t.Helper()
	setupOnce.Do(func() {
		b := &bench{config: config{corpusSeed: 1, workers: runtime.NumCPU()}}
		d, _ := depot.Open("")
		setupProtos, setupErr = b.setup(d)
	})
	if setupErr != nil {
		t.Fatal(setupErr)
	}
	return &bench{config: config{workload: workload, seed: 7, corpusSeed: 1, workers: runtime.NumCPU(),
		out: t.TempDir()}, protos: setupProtos}
}

// populated returns an in-memory depot holding a cold check of every
// protocol: the edit_loop starting state.
func populated(t *testing.T, b *bench) *depot.Depot {
	t.Helper()
	d, _ := depot.Open("")
	for _, p := range b.protos {
		if _, err := check(&sched.Analyzer{Depot: d, Workers: b.workers}, p.gen, p.gen.Files); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestScheduleRepeats(t *testing.T) {
	b := testBench(t, "edit_loop")
	draw := func(seed int64) []string {
		b.seed = seed
		next := b.scheduler()
		var out []string
		for i := 0; i < 60; i++ {
			rq := next()
			out = append(out, rq.p.gen.Name+" "+rq.edit.String())
		}
		return out
	}
	a, again, other := draw(3), draw(3), draw(4)
	if strings.Join(a, "\n") != strings.Join(again, "\n") {
		t.Fatal("the same seed produced two schedules")
	}
	if strings.Join(a, "\n") == strings.Join(other, "\n") {
		t.Fatal("different seeds produced the same schedule")
	}
	// Every rotation of len(protos) steps visits each protocol once.
	n := len(b.protos)
	for c := 0; c+n <= len(a); c += n {
		seen := map[string]bool{}
		for _, s := range a[c : c+n] {
			seen[strings.Fields(s)[0]] = true
		}
		if len(seen) != n {
			t.Fatalf("rotation at step %d visits %d protocols, want %d", c, len(seen), n)
		}
	}
}

func TestEditPreservesPositions(t *testing.T) {
	b := testBench(t, "edit_loop")
	next := b.scheduler()
	literals := map[int]bool{}
	for i := 0; i < 200; i++ {
		rq := next()
		e := rq.edit
		if literals[e.literal] {
			t.Fatalf("step %d reuses literal %d", i, e.literal)
		}
		literals[e.literal] = true
		before := strings.Split(rq.p.gen.Files[e.site.file], "\n")
		after := strings.Split(rq.files[e.site.file], "\n")
		if len(before) != len(after) {
			t.Fatalf("%s: edit changed the line count", e)
		}
		for j := range before {
			switch {
			case j == e.site.line-1:
				want := fmt.Sprintf("%s (void)%d;", before[j], e.literal)
				if after[j] != want {
					t.Fatalf("%s: edited line %q, want %q", e, after[j], want)
				}
				for _, hook := range []string{"HANDLER_DEFS", "HANDLER_PROLOGUE", "SUBROUTINE_PROLOGUE", "SET_STACKPTR"} {
					if strings.Contains(before[j], hook) {
						t.Fatalf("%s: edit on a %s line", e, hook)
					}
				}
			case before[j] != after[j]:
				t.Fatalf("%s: line %d changed too", e, j+1)
			}
		}
		for name, text := range rq.p.gen.Files {
			if name != e.site.file && rq.files[name] != text {
				t.Fatalf("%s: file %s changed too", e, name)
			}
		}
	}
}

// TestEditsNearHooksKeepReports edits the sites closest to each
// handler's opening hooks, where the execution-restriction checker
// looks at statement order, and requires the unedited ranked stream.
func TestEditsNearHooksKeepReports(t *testing.T) {
	b := testBench(t, "edit_loop")
	for pi, p := range b.protos {
		tried := 0
		for _, s := range p.sites {
			ls := strings.Split(p.gen.Files[s.file], "\n")
			if s.line < 2 || !strings.Contains(ls[s.line-2], "PROLOGUE") {
				continue
			}
			e := edit{proto: pi, site: s, literal: 1}
			o, err := check(&sched.Analyzer{Depot: newDepot(), Workers: b.workers}, p.gen, e.apply(p.gen.Files))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(render(o.ranked), p.ref) {
				t.Errorf("%s: ranked stream differs from the unedited protocol's", e)
			}
			if tried++; tried == 3 {
				break
			}
		}
		if tried == 0 {
			t.Errorf("%s: no edit site follows a prologue", p.gen.Name)
		}
	}
}

// editCounts is one edit's invalidation footprint.
type editCounts struct {
	reanalyzed, puts, triageMisses, missedFns int
}

// runEdits applies the seed's first n edits to a populated depot and
// returns each edit's counts; every edit must reproduce the reference.
func runEdits(t *testing.T, b *bench, n int) []editCounts {
	t.Helper()
	d := populated(t, b)
	next := b.scheduler()
	var out []editCounts
	for i := 0; i < n; i++ {
		rq := next()
		puts0 := cPuts.Value()
		o, err := check(&sched.Analyzer{Depot: d, Workers: b.workers}, rq.p.gen, rq.files)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(render(o.ranked), rq.p.ref) {
			t.Fatalf("%s: ranked stream differs from the unedited protocol's", rq.edit)
		}
		fns := map[string]bool{}
		for _, a := range o.res.Artifacts {
			if strings.HasPrefix(a.Task, "sm:") && a.Decision != sched.DecisionHit {
				fns[a.Task[strings.LastIndex(a.Task, ":")+1:]] = true
			}
		}
		out = append(out, editCounts{len(o.res.Stats.Reanalyzed), int(cPuts.Value() - puts0),
			o.triage.CacheMisses, len(fns)})
	}
	return out
}

func TestEditInvalidationRepeats(t *testing.T) {
	b := testBench(t, "edit_loop")
	first := runEdits(t, b, 12)
	second := runEdits(t, b, 12)
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("edit %d: counts %+v, then %+v", i, first[i], second[i])
		}
		if first[i].missedFns != 1 {
			t.Errorf("edit %d: SM tasks missed on %d functions, want 1", i, first[i].missedFns)
		}
	}
}

// traceOnce runs one traced request of b's first scheduled request
// against fresh copies of the workload's starting depots.
func traceOnce(t *testing.T, b *bench) *traceRow {
	t.Helper()
	var stores [3]*depot.Depot
	for i := range stores {
		if b.workload == "edit_loop" {
			stores[i] = populated(t, b)
		} else {
			stores[i], _ = depot.Open("")
		}
	}
	row, err := b.traceRequest(newTracer(), 0, b.scheduler()(), stores)
	if err != nil {
		t.Fatal(err)
	}
	return row
}

func TestTracedCountsRepeat(t *testing.T) {
	for _, w := range []string{"cold_suite", "edit_loop"} {
		t.Run(w, func(t *testing.T) {
			b := testBench(t, w)
			a, c := traceOnce(t, b), traceOnce(t, b)
			if err := countDrift(a.Metrics, c.Metrics); err != nil {
				t.Fatal(err)
			}
			// Per-span allocation counts come from runtime/metrics, which
			// lags the allocator by its per-P caches: a few percent.
			for _, k := range []string{"engine.allocs", "cpp.allocs", "lexer.allocs"} {
				if x, y := a.Metrics[k], c.Metrics[k]; math.Abs(x-y) > 0.05*math.Max(x, y) {
					t.Errorf("%s: %g then %g, beyond 5%%", k, x, y)
				}
			}
			for _, m := range perLayer {
				if _, ok := a.Metrics[m.name]; !ok {
					t.Errorf("traced row lacks %s", m.name)
				}
			}
		})
	}
}

func TestAllocationsRepeat(t *testing.T) {
	b := testBench(t, "cold_suite")
	p := b.protos[0]
	alloc := func() float64 {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		d, _ := depot.Open("")
		if _, err := check(&sched.Analyzer{Depot: d, Workers: b.workers}, p.gen, p.gen.Files); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.TotalAlloc - m0.TotalAlloc)
	}
	x, y := alloc(), alloc()
	if math.Abs(x-y) > 0.01*math.Max(x, y) {
		t.Fatalf("cold check of %s allocated %g then %g bytes, beyond 1%%", p.gen.Name, x, y)
	}
}

func TestResultLine(t *testing.T) {
	for _, tc := range []struct {
		trace string
		want  []string
	}{
		{"0", []string{"latency_p50_ms", "latency_p90_ms", "throughput_lines_per_s",
			"alloc_mb_per_req", "peak_rss_mb", "success_rate", "setup_s"}},
		{"1", nil},
	} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-workload", "cold_suite", "-seed", "2", "-seconds", "0.01",
			"-trace", tc.trace, "-out", t.TempDir()}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", tc.trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted != len(flash.ProtocolNames) {
			t.Fatalf("trace %s: %+v", tc.trace, res)
		}
		want := tc.want
		if want == nil {
			for _, m := range perLayer {
				want = append(want, m.name)
			}
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics, want %d", tc.trace, len(res.Metrics), len(want))
		}
		for _, name := range want {
			if _, ok := res.Metrics[name]; !ok {
				t.Errorf("trace %s: no %s", tc.trace, name)
			}
		}
	}
	var stdout bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &stdout, &bytes.Buffer{}); code == 0 || stdout.Len() > 0 {
		t.Fatalf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
}
