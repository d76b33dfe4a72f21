package checkers

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"flashmc/internal/core"
	"flashmc/internal/engine"
	"flashmc/internal/flash"
	"flashmc/internal/flashgen"
	"flashmc/internal/global"
)

// TestLaneWalkReuse: a pooled walk state carries nothing from one
// handler walk into the next. Every handler of seed-1 sci, walked with
// CheckHandler in spec order, in reverse order and split across two
// goroutines, gives the reports and coverage of a reference walk with
// fresh maps. It runs under the generator's spec, whose allowances
// differ per handler, and under mcheck's naming-convention spec, under
// which sci's handlers exceed their allowances.
func TestLaneWalkReuse(t *testing.T) {
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
	linked, _ := global.Link(Summarize(prog))

	type walk struct {
		Reports []engine.Report
		Cov     string
	}
	render := func(reports []engine.Report, cov *engine.Coverage) walk {
		b, err := json.Marshal(cov)
		if err != nil {
			t.Error(err)
		}
		return walk{reports, string(b)}
	}
	nreports := 0
	for _, spec := range []*flash.Spec{sci.Spec, flash.ConventionSpec(prog.FnNames())} {
		handlers := append(append([]string{}, spec.Hardware...), spec.Software...)
		want := make([]walk, len(handlers))
		for i, h := range handlers {
			fresh := &walkState{visits: map[walkKey]visit{}, warned: map[string]bool{}}
			want[i] = render(checkLanes(linked, &flash.Spec{Hardware: []string{h}, Allowance: spec.Allowance}, fresh))
			nreports += len(want[i].Reports)
		}
		compare := func(order string, got []walk) {
			t.Helper()
			for i, h := range handlers {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s, %s: handler %s:\n got %+v\nwant %+v", spec.Protocol, order, h, got[i], want[i])
				}
			}
		}

		got := make([]walk, len(handlers))
		for i, h := range handlers {
			got[i] = render(CheckHandler(linked, spec, h))
		}
		compare("spec order", got)

		got = make([]walk, len(handlers))
		for i := len(handlers) - 1; i >= 0; i-- {
			got[i] = render(CheckHandler(linked, spec, handlers[i]))
		}
		compare("reverse order", got)

		got = make([]walk, len(handlers))
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(handlers); i += 2 {
					got[i] = render(CheckHandler(linked, spec, handlers[i]))
				}
			}(w)
		}
		wg.Wait()
		compare("two goroutines", got)
	}
	if nreports == 0 {
		t.Fatal("sci's handlers report nothing; the comparison is vacuous")
	}
}
