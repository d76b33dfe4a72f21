package engine

import (
	"testing"

	"flashmc/internal/cc/token"
)

// TestPosOrderStable pins the report order mcheck prints and mcheckd
// returns: by (file, line), with reports on one line in assembly
// order. Thirteen or more elements are needed to catch an unstable
// sort; below that sort.Slice falls back to a stable insertion sort.
func TestPosOrderStable(t *testing.T) {
	var reports []Report
	for i := 0; i < 20; i++ {
		reports = append(reports, Report{Pos: token.Pos{File: "a.c", Line: (20 - i) % 3, Col: i}})
	}
	reports = append(reports, Report{Pos: token.Pos{File: "0.c", Line: 9}})
	order := PosOrder(reports)
	if len(order) != len(reports) {
		t.Fatalf("got %d indexes for %d reports", len(order), len(reports))
	}
	if order[0] != len(reports)-1 {
		t.Errorf("first index %d, want the 0.c report %d", order[0], len(reports)-1)
	}
	for k := 1; k < len(order); k++ {
		a, b := reports[order[k-1]].Pos, reports[order[k]].Pos
		switch {
		case a.File > b.File || a.File == b.File && a.Line > b.Line:
			t.Errorf("order[%d..%d]: %v before %v", k-1, k, a, b)
		case a.File == b.File && a.Line == b.Line && order[k-1] > order[k]:
			t.Errorf("order[%d..%d]: tie on %s:%d reordered (%d before %d)", k-1, k, a.File, a.Line, order[k-1], order[k])
		}
	}
}
