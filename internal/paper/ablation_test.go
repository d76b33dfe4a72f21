package paper

import (
	"testing"

	"flashmc/internal/checkers"
	"flashmc/internal/flash"
	"flashmc/internal/flashgen"
)

// TestPruningRemovesUselessAnnotations reproduces the paper's §6
// observation quantitatively: the duplicated-condition class of
// useless annotations exists only because the engine (like xg++) does
// not prune simple impossible paths. With the correlated-branch pruner
// on and annotations stripped, exactly the duplicated-condition
// reports disappear while the data-dependent ones (and the real
// errors) remain.
func TestPruningRemovesUselessAnnotations(t *testing.T) {
	stripped, err := LoadCorpus(flashgen.Options{Seed: 1, StripAnnotations: true})
	if err != nil {
		t.Fatal(err)
	}

	// Count duplicated-condition annotation pairs per protocol: each
	// "h_dupcond" shape carries two useless annotations suppressing
	// two reports.
	dupAnnotations := map[string]int{}
	for _, p := range stripped.Gen.Protocols {
		for _, s := range p.Manifest {
			if s.Class == flashgen.ClassUseless && s.Note == "duplicated branch condition (impossible path)" {
				dupAnnotations[p.Name]++
			}
		}
	}

	naive := checkers.NewBufferMgmt()
	pruned := checkers.NewBufferMgmtPruned()
	totalRemoved := 0
	for _, p := range stripped.Gen.Protocols {
		prog := stripped.Programs[p.Name]
		naiveReports, _ := naive.CheckCov(prog, p.Spec)
		prunedReports, _ := pruned.CheckCov(prog, p.Spec)
		before := ScoreChecker(p, "buffer_mgmt", naiveReports)
		after := ScoreChecker(p, "buffer_mgmt", prunedReports)
		removed := len(before.Unmatched) - len(after.Unmatched)
		if removed != dupAnnotations[p.Name] {
			t.Errorf("%s: pruning removed %d reports, want %d (the duplicated-condition ones)",
				p.Name, removed, dupAnnotations[p.Name])
		}
		totalRemoved += removed
		// Errors and minor findings must be unaffected by pruning.
		if after.Errors != before.Errors || after.Minor != before.Minor {
			t.Errorf("%s: pruning changed real findings: errors %d->%d minor %d->%d",
				p.Name, before.Errors, after.Errors, before.Minor, after.Minor)
		}
	}
	// The paper: "We eliminated over twenty useless annotations by
	// adding twelve lines to the SM" (the value-sensitivity fix); our
	// pruner addresses the sibling cause with a comparable yield.
	if totalRemoved < 20 {
		t.Errorf("pruning removed only %d reports; expected the >20 regime", totalRemoved)
	}
	t.Logf("pruning removed %d duplicated-condition reports corpus-wide", totalRemoved)
}

// TestValueSensitivityAblation reproduces the paper's actual fix: the
// twelve SM lines that made the checker sensitive to routines
// returning 0/1 depending on whether they freed the buffer. Without
// the CondRule, every caller of maybe_free_buf() produces a cascade of
// spurious reports; with it, none do.
func TestValueSensitivityAblation(t *testing.T) {
	c := testCorpus(t)
	for _, p := range c.Gen.Protocols {
		prog := c.Programs[p.Name]

		// Degrade the spec: forget that maybe_free_buf is
		// value-sensitive (the naive extension's view).
		degraded := *p.Spec
		degraded.CondFreeFns = map[string]bool{}

		full, _ := checkers.NewBufferMgmt().CheckCov(prog, p.Spec)
		naive, _ := checkers.NewBufferMgmt().CheckCov(prog, &degraded)
		if len(naive) <= len(full) {
			t.Errorf("%s: value-sensitivity made no difference (%d vs %d reports) — the h_cond_free shape should cascade",
				p.Name, len(naive), len(full))
		}
	}
}

// TestLanesFixedPointAblation verifies the paper's cycle rule matters:
// the corpus's recursive spin() helper and send-free loops are
// accepted, which requires the fixed-point treatment rather than a
// crude "reject all cycles" rule.
func TestLanesFixedPointAblation(t *testing.T) {
	c := testCorpus(t)
	res := c.Lanes()
	for _, pr := range res.Problems() {
		t.Errorf("lanes: %s", pr)
	}
	// Exactly the two seeded bugs, nothing from recursion or loops.
	total := 0
	for _, p := range flash.ProtocolNames {
		total += res.Errors[p] + res.FalsePos[p]
	}
	if total != 2 {
		t.Errorf("lane findings %d, want exactly the 2 seeded bugs", total)
	}
}
