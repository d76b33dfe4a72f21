package engine

import (
	"encoding/json"
	"reflect"
	"testing"
)

// covJSON renders coverage without its timing fields, which differ
// run to run.
func covJSON(t *testing.T, c *Coverage) string {
	t.Helper()
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFusedActiveMask: each active member gets exactly what RunCov
// returns for it alone, in member order, and an inactive member gets
// nil reports and nil coverage.
func TestFusedActiveMask(t *testing.T) {
	g := buildGraph(t, `
void handler(void) {
	int a;
	int b;
	MISCBUS_READ_DB(a, b);
	WAIT_FOR_DB_FULL(a);
}`)
	race, msglen := waitForDBSM(t), msglenSM(t)
	fused := CompileFused(race, msglen, race)
	reports, covs := fused.RunCov(g, []bool{true, false, true})
	wantReports, wantCov := RunCov(g, race)
	if len(wantReports) != 1 {
		t.Fatalf("fixture: want 1 race report, got %v", wantReports)
	}
	for _, m := range []int{0, 2} {
		if !reflect.DeepEqual(reports[m], wantReports) {
			t.Errorf("member %d reports %v, want %v", m, reports[m], wantReports)
		}
		if covs[m] == nil || covJSON(t, covs[m]) != covJSON(t, wantCov) {
			t.Errorf("member %d coverage differs from RunCov", m)
		}
	}
	if reports[1] != nil || covs[1] != nil {
		t.Errorf("inactive member ran: reports %v, coverage %v", reports[1], covs[1])
	}
	if _, all := fused.RunCov(g, nil); all[0] == nil || all[1] == nil || all[2] == nil {
		t.Error("a nil mask must run every member")
	}
}
