package engine

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"flashmc/internal/cfg"
)

// leakSM moves to "read" on a buffer read, tracking the address, and
// reports every tracked address still read at exit. Sequential
// conditional reads of distinct addresses pile up one configuration per
// address at every join, and with correlate set every configuration
// also carries its branch outcomes.
func leakSM(t *testing.T, correlate bool) *SM {
	w := map[string]string{"addr": "scalar", "buf": "scalar"}
	return &SM{
		Name:  "leak",
		Start: "start",
		Track: []string{"addr"},
		Rules: []*Rule{
			{State: "start", Patterns: []Pattern{mkPattern(t, "MISCBUS_READ_DB(addr, buf);", w)}, Target: "read", Tag: "read"},
			{State: "read", Patterns: []Pattern{mkPattern(t, "WAIT_FOR_DB_FULL(addr);", w)}, Target: "start", Tag: "wait"},
		},
		AtExit: func(c *Ctx) {
			if c.State == "read" {
				c.Report("address %s read but never waited on", c.Bound("addr"))
			}
		},
		CorrelateBranches: correlate,
	}
}

// wideSource is a handler with n conditional reads of distinct
// addresses, so the exit holds n+1 configurations (more than smallSet
// once n reaches it). Only the leading branch is on a bare identifier,
// so a correlating machine records one outcome per configuration
// rather than one per read.
func wideSource(n int) string {
	var b strings.Builder
	b.WriteString("void wide(void) {\n\tint buf;\n\tint flag;\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "\tint a%d;\n\tint c%d;\n", i, i)
	}
	b.WriteString("\tif (flag) buf = 0;\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "\tif (c%d > 0) MISCBUS_READ_DB(a%d, buf);\n", i, i)
	}
	b.WriteString("}\n")
	return b.String()
}

const smallSource = `
void small(void) {
	int a;
	int b;
	int c;
	MISCBUS_READ_DB(a, b);
	if (c)
		WAIT_FOR_DB_FULL(a);
}`

// runResult is what a run hands back, coverage rendered for equality.
type runResult struct {
	reports []Report
	cov     string
}

func runOnce(t *testing.T, g *cfg.Graph, sm *SM) runResult {
	reports, cov := RunCov(g, sm)
	return runResult{reports, covJSON(t, cov)}
}

// freshPool swaps in an empty scratch pool for the test's duration.
func freshPool(t *testing.T) {
	old := scratchPool
	scratchPool = &sync.Pool{New: old.New}
	t.Cleanup(func() { scratchPool = old })
}

// zeroSlot reports whether a set slot references nothing.
func zeroSlot(k keyedConfig) bool {
	return k.key == "" && k.state == "" && k.env == nil && k.conds == nil && k.trace == nil
}

// TestScratchDirtyPool: a run that reuses the scratch of a larger,
// configuration-heavy run reports, covers and witnesses exactly what a
// run on a fresh pool does, and release leaves no configuration behind
// in the scratch.
func TestScratchDirtyPool(t *testing.T) {
	big := buildGraph(t, wideSource(3*smallSet))
	small := buildGraph(t, smallSource)
	for _, correlate := range []bool{false, true} {
		sm := leakSM(t, correlate)
		freshPool(t)
		want := runOnce(t, small, sm)
		if len(want.reports) != 1 || len(want.reports[0].Trace) < 2 {
			t.Fatalf("correlate=%v: small run reported %v, want one witnessed leak", correlate, want.reports)
		}
		wide := runOnce(t, big, sm)
		if len(wide.reports) != 3*smallSet {
			t.Fatalf("correlate=%v: wide run reported %d leaks, want %d", correlate, len(wide.reports), 3*smallSet)
		}
		if got := runOnce(t, small, sm); !reflect.DeepEqual(got, want) {
			t.Errorf("correlate=%v: after a wide run\n got %+v\nwant %+v", correlate, got, want)
		}

		RunCov(big, sm)
		s := scratchPool.Get().(*fixScratch)
		for i, set := range s.out {
			if len(set.list) != 0 || set.idx != nil {
				t.Fatalf("released out[%d] holds %d configurations", i, len(set.list))
			}
			for j, k := range set.list[:cap(set.list)] {
				if !zeroSlot(k) {
					t.Fatalf("released out[%d] slot %d still holds %+v", i, j, k)
				}
			}
		}
		for j, k := range s.in.list[:cap(s.in.list)] {
			if !zeroSlot(k) {
				t.Fatalf("released input set slot %d still holds %+v", j, k)
			}
		}
		for i, b := range s.inWork {
			if b {
				t.Fatalf("released inWork[%d] is set", i)
			}
		}
		if len(s.work) != 0 {
			t.Fatalf("released work list holds %d nodes", len(s.work))
		}
		for j, n := range s.work[:cap(s.work)] {
			if n != nil {
				t.Fatalf("released work list slot %d still holds node %d", j, n.ID)
			}
		}
		scratchPool.Put(s)
	}
}

// TestRunCovConcurrent runs mixed graphs and machines from many
// goroutines at once; each run must return what the same run returns
// alone. go test -race checks the pool hand-off.
func TestRunCovConcurrent(t *testing.T) {
	graphs := []*cfg.Graph{
		buildGraph(t, wideSource(smallSet+2)),
		buildGraph(t, smallSource),
		buildGraph(t, wideSource(2)),
		buildGraph(t, `
void h(void) {
	int a;
	int b;
	MISCBUS_READ_DB(a, b);
	WAIT_FOR_DB_FULL(a);
}`),
	}
	sms := []*SM{leakSM(t, false), leakSM(t, true), waitForDBSM(t)}
	type job struct {
		g  *cfg.Graph
		sm *SM
	}
	var jobs []job
	var want []runResult
	for _, g := range graphs {
		for _, sm := range sms {
			jobs = append(jobs, job{g, sm})
			want = append(want, runOnce(t, g, sm))
		}
	}
	const goroutines, rounds = 8, 5
	got := make([][]runResult, goroutines)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Each goroutine walks the jobs from its own offset, so
				// large and small runs interleave on every P.
				for i := range jobs {
					j := jobs[(i+w+r)%len(jobs)]
					reports, cov := RunCov(j.g, j.sm)
					if r == 0 {
						got[w] = append(got[w], runResult{reports, covJSON(t, cov)})
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for i, res := range got[w] {
			k := (i + w) % len(jobs)
			if !reflect.DeepEqual(res, want[k]) {
				t.Errorf("goroutine %d, job %d: got %+v, want %+v", w, k, res, want[k])
			}
		}
	}
}

// TestRunCovAllocsBounded: once the pool holds a scratch and the SM
// its plan, a run that reports nothing allocates only the runner's own
// bookkeeping (runner, coverage, seen set, seed environment) — the
// same count on a ten-statement and a two-hundred-statement graph.
func TestRunCovAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	quiet := func(n int) *cfg.Graph {
		var b strings.Builder
		b.WriteString("void quiet(void) {\n\tint a;\n\tint b;\n")
		for i := 0; i < n; i++ {
			b.WriteString("\tif (a) b = a + 1; else b = 2;\n")
		}
		b.WriteString("}\n")
		return buildGraph(t, b.String())
	}
	sm := waitForDBSM(t)
	allocs := func(g *cfg.Graph) float64 {
		RunCov(g, sm)
		return testing.AllocsPerRun(50, func() {
			if reports, _ := RunCov(g, sm); len(reports) != 0 {
				t.Fatalf("quiet graph reported %v", reports)
			}
		})
	}
	short, long := allocs(quiet(10)), allocs(quiet(200))
	t.Logf("allocations per run: %v on 10 statements, %v on 200", short, long)
	if long > short {
		t.Errorf("a run on 200 statements allocates %v times, on 10 %v: scratch grows with the graph", long, short)
	}
	if short > 20 {
		t.Errorf("a quiet run allocates %v times, want at most 20", short)
	}
}
