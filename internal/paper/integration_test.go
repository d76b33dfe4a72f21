package paper

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"flashmc/internal/cc/cpp"
	"flashmc/internal/checkers"
	"flashmc/internal/core"
	"flashmc/internal/engine"
	"flashmc/internal/flash"
	"flashmc/internal/metal"
	"flashmc/internal/paths"
)

// TestDataflowMatchesPathWalkOnCorpus differentially validates the
// engine: on every corpus function small enough to enumerate, the
// configuration-set executor must produce exactly the reports of the
// literal every-path walk for the Figure 2 checker.
func TestDataflowMatchesPathWalkOnCorpus(t *testing.T) {
	c := testCorpus(t)
	prog, err := metal.Compile(checkers.WaitForDBSource,
		metal.Options{Include: flash.HeaderSource()})
	if err != nil {
		t.Fatal(err)
	}
	const maxPaths = 2000
	checked := 0
	for _, name := range flash.ProtocolNames {
		p := c.Programs[name]
		for _, g := range p.Graphs {
			if paths.Analyze(g).Count > maxPaths {
				continue
			}
			a, _ := engine.RunCov(g, prog.SM)
			b := engine.RunPaths(g, prog.SM, maxPaths*4)
			if !sameReports(a, b) {
				t.Errorf("%s/%s: dataflow %v != pathwalk %v", name, g.Fn.Name, a, b)
			}
			checked++
		}
	}
	if checked < 1000 {
		t.Errorf("only %d functions compared; corpus should provide 1000+", checked)
	}
}

func sameReports(a, b []engine.Report) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(r engine.Report) string { return r.Pos.String() + "|" + r.Msg }
	ka := make([]string, len(a))
	kb := make([]string, len(b))
	for i := range a {
		ka[i] = key(a[i])
		kb[i] = key(b[i])
	}
	sort.Strings(ka)
	sort.Strings(kb)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// TestDiskRoundTrip writes the corpus to disk, reloads it through the
// OS file source (the cmd/mcheck path), and verifies a checker's
// results are identical to the in-memory load.
func TestDiskRoundTrip(t *testing.T) {
	c := testCorpus(t)
	p := c.Gen.Protocol("sci")
	dir := t.TempDir()

	if err := os.WriteFile(filepath.Join(dir, "flash-includes.h"),
		[]byte(flash.IncludesH), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, text := range p.Files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	disk, err := core.Load(p.Name, cpp.OSSource{Dir: dir}, p.RootFiles)
	if err != nil {
		t.Fatal(err)
	}
	if len(disk.ParseErrors) != 0 {
		t.Fatalf("parse errors from disk: %v", disk.ParseErrors[0])
	}

	mem := c.Programs["sci"]
	chk := checkers.NewBufferMgmt()
	a, _ := chk.CheckCov(mem, p.Spec)
	b, _ := chk.CheckCov(disk, p.Spec)
	if !sameReports(a, b) {
		t.Errorf("disk load diverges: %d vs %d reports", len(a), len(b))
	}
	if disk.SourceLOC != mem.SourceLOC {
		t.Errorf("LOC %d vs %d", disk.SourceLOC, mem.SourceLOC)
	}
}

// TestCorpusSeedIndependence verifies the reproduction is not an
// artifact of seed 1: a different seed reshuffles the clean code but
// every table still joins exactly.
func TestCorpusSeedIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus reload")
	}
	c2, err := LoadCorpus(flashgenOpts(99))
	if err != nil {
		t.Fatal(err)
	}
	t2 := c2.Table2()
	assertClean(t, t2)
	assertRow(t, "seed99 race errors", flash.Table2.Errors, t2.Errors)
	t4 := c2.Table4()
	assertClean(t, t4.CheckerResult)
	assertRow(t, "seed99 bufmgmt errors", flash.Table4.Errors, t4.Errors)
	lanes := c2.Lanes()
	assertClean(t, lanes)
	assertRow(t, "seed99 lanes", flash.LanesResults.Errors, lanes.Errors)
	t6 := c2.Table6()
	assertClean(t, t6.Directory)
	assertRow(t, "seed99 directory FPs", flash.Table6.Directory.FalsePos, t6.Directory.FalsePos)
}
