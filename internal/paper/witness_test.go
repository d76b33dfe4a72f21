package paper

import (
	"reflect"
	"testing"

	"flashmc/internal/checkers"
	"flashmc/internal/depot"
	"flashmc/internal/sched"
)

// TestEveryCorpusReportHasWitness is the corpus-wide witness-trace
// acceptance gate: every report from every checker on every generated
// protocol must carry a non-empty trace whose final step lands exactly
// on the report position — the trace ends where the diagnostic points.
func TestEveryCorpusReportHasWitness(t *testing.T) {
	c := testCorpus(t)
	total := 0
	for _, chk := range checkers.All() {
		for proto, reports := range c.RunChecker(chk) {
			for _, r := range reports {
				total++
				if len(r.Trace) == 0 {
					t.Errorf("%s/%s: report %q at %s has no witness trace",
						chk.Name(), proto, r.Msg, r.Pos)
					continue
				}
				last := r.Trace[len(r.Trace)-1]
				if last.Pos != r.Pos {
					t.Errorf("%s/%s: report at %s but witness ends at %s",
						chk.Name(), proto, r.Pos, last.Pos)
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("corpus produced no reports; witness gate is vacuous")
	}
	t.Logf("verified witness traces on %d corpus reports", total)
}

// TestWitnessSurvivesDepotRoundTrip runs one protocol through the
// depot-backed scheduler twice: the warm run is served from cached
// JSON and must reproduce the cold run's reports, traces included.
func TestWitnessSurvivesDepotRoundTrip(t *testing.T) {
	c := testCorpus(t)
	p := c.Gen.Protocols[0]
	prog := c.Programs[p.Name]

	d, err := depot.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := &sched.Analyzer{Depot: d}
	cold, err := a.Check(sched.Request{Prog: prog, Spec: p.Spec, Jobs: sched.FlashJobs(p.Spec)})
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Reports) == 0 {
		t.Fatalf("%s: no reports", p.Name)
	}
	traced := 0
	for _, r := range cold.Reports {
		if len(r.Trace) > 0 {
			traced++
		}
	}
	if traced != len(cold.Reports) {
		t.Fatalf("%s: only %d/%d scheduler reports carry traces", p.Name, traced, len(cold.Reports))
	}

	warm, err := a.Check(sched.Request{Prog: prog, Spec: p.Spec, Jobs: sched.FlashJobs(p.Spec)})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.CacheMisses != 0 {
		t.Fatalf("warm run missed %d times", warm.Stats.CacheMisses)
	}
	if !reflect.DeepEqual(cold.Reports, warm.Reports) {
		t.Fatal("witness traces did not survive the depot JSON round trip")
	}
}
