package checkers

import (
	"testing"

	"flashmc/internal/engine"
)

func TestCheckCovMatchesCheck(t *testing.T) {
	p := loadProto(t, `
void h_local_get(void) {
	HANDLER_DEFS();
	HANDLER_PROLOGUE(1);
	int a;
	int b;
	MISCBUS_READ_DB(a, b);
	WAIT_FOR_DB_FULL(a);
}`)
	spec := testSpec()
	for _, chk := range All() {
		want := chk.Check(p, spec)
		got, covs := chk.CheckCov(p, spec)
		if msgs(want) != msgs(got) {
			t.Errorf("%s: CheckCov reports differ from Check:\n%s\nvs\n%s",
				chk.Name(), msgs(want), msgs(got))
		}
		for _, c := range covs {
			if c.Empty() {
				t.Errorf("%s: CheckCov returned an empty coverage", chk.Name())
			}
		}
	}
}

func TestBufferRaceCoverageFires(t *testing.T) {
	p := loadProto(t, `
void handler(void) {
	int a;
	int b;
	MISCBUS_READ_DB(a, b);
	WAIT_FOR_DB_FULL(a);
}`)
	_, covs := NewBufferRace().CheckCov(p, testSpec())
	if len(covs) == 0 {
		t.Fatal("no coverage")
	}
	merged := map[string]uint64{}
	for _, c := range covs {
		if c.SM != "wait_for_db" {
			t.Errorf("SM = %q, want wait_for_db", c.SM)
		}
		for k, v := range c.Rules {
			merged[k] += v
		}
	}
	if len(merged) == 0 {
		t.Errorf("no rules fired: %+v", covs)
	}
}

func TestNoFloatCoverageOnCleanCode(t *testing.T) {
	p := loadProto(t, `
void handler(void) {
	int a;
	a = 1 + 2;
}`)
	reports, covs := NewNoFloat().CheckCov(p, testSpec())
	if len(reports) != 0 {
		t.Fatalf("unexpected reports: %v", reports)
	}
	if len(covs) != 1 || covs[0].Rules["typecheck"] == 0 {
		t.Errorf("nofloat must count examined expressions on clean code: %+v", covs)
	}
}

func TestLanesCoverageWalksHandlers(t *testing.T) {
	p := loadProto(t, `
void h_local_get(void) {
	PI_SEND(1, 1, 1, 1, 1, 1);
}
void sw_flush(void) {
	NI_SEND(1, 1, 1, 1, 1, 1);
}`)
	_, covs := NewLanes().CheckCov(p, testSpec())
	if len(covs) != 1 {
		t.Fatalf("coverage entries: %+v", covs)
	}
	// testSpec names four handlers but only two exist in the program.
	if covs[0].Rules["walk"] != 2 {
		t.Errorf("walk count: %+v", covs[0].Rules)
	}
	var _ []*engine.Coverage = covs
}
