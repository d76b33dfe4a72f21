package checkers

import (
	"reflect"
	"sync"
	"testing"

	"flashmc/internal/core"
	"flashmc/internal/engine"
	"flashmc/internal/flashgen"
)

// TestSMsShareGraphConcurrently: every SM checker runs on one function's
// graph at the same time as the others, as the scheduler's per-function
// SM tasks do, reading the graph's node signatures unlocked. Over every
// function of seed-1 sci, each concurrent run must return the reports
// and coverage of the same run alone; go test -race checks that the
// shared graph is only read.
func TestSMsShareGraphConcurrently(t *testing.T) {
	var sci *flashgen.Protocol
	for _, p := range flashgen.Generate(flashgen.Options{Seed: 1}).Protocols {
		if p.Name == "sci" {
			sci = p
		}
	}
	prog, err := core.Load(sci.Name, sci.Source(), sci.RootFiles)
	if err != nil {
		t.Fatal(err)
	}
	var sms []*engine.SM
	for _, c := range All() {
		if sp, ok := c.(SMProvider); ok {
			sm, _ := sp.BuildSM(sci.Spec)
			sms = append(sms, sm)
		}
	}
	if len(sms) < 2 {
		t.Fatalf("%d SM checkers: nothing runs concurrently", len(sms))
	}
	type result struct {
		reports []engine.Report
		cov     *engine.Coverage
	}
	reported := false
	for _, g := range prog.Graphs {
		want := make([]result, len(sms))
		for i, sm := range sms {
			want[i].reports, want[i].cov = engine.RunCov(g, sm)
			reported = reported || len(want[i].reports) > 0
		}
		got := make([]result, len(sms))
		var wg sync.WaitGroup
		for i, sm := range sms {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i].reports, got[i].cov = engine.RunCov(g, sm)
			}()
		}
		wg.Wait()
		for i := range sms {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s, %s: concurrent run got %+v, alone %+v", g.Fn.Name, sms[i].Name, got[i], want[i])
			}
		}
	}
	if !reported {
		t.Fatal("no SM reports on sci: the comparison is vacuous")
	}
}
