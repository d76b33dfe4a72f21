package sched

import (
	"testing"

	"flashmc/internal/depot"
)

// TestClassifyMiss covers each miss reason from the task marker alone:
// the marker records the key the task last computed under, and the
// artifact under the new key is absent in every case (it is a miss).
func TestClassifyMiss(t *testing.T) {
	last := depot.Key{Kind: reportsKind, Source: "fp1", Checker: "c", Version: "1", Options: "o"}
	for _, tc := range []struct {
		name   string
		marker bool
		key    depot.Key
		want   string
	}{
		{"no marker", false, last, DecisionNew},
		{"same key, artifact gone", true, last, DecisionEvicted},
		{"version", true, depot.Key{Kind: reportsKind, Source: "fp1", Checker: "c", Version: "2", Options: "o"}, DecisionVersionBump},
		{"options", true, depot.Key{Kind: reportsKind, Source: "fp1", Checker: "c", Version: "1", Options: "o2"}, DecisionOptionsChanged},
		{"source", true, depot.Key{Kind: reportsKind, Source: "fp2", Checker: "c", Version: "1", Options: "o"}, DecisionDepInvalidated},
	} {
		d, err := depot.Open("")
		if err != nil {
			t.Fatal(err)
		}
		if tc.marker {
			writeMarker(d, "c", "sm:f", last)
		}
		if _, ok := d.Get(tc.key); ok {
			t.Fatalf("%s: artifact present; the case must be a miss", tc.name)
		}
		if got := classifyMiss(d, "c", "sm:f", tc.key); got != tc.want {
			t.Errorf("%s: classifyMiss = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestDecisionLine pins mcheck -v's per-reason rendering: every
// reason in display order, zeros included, unknown reasons dropped.
func TestDecisionLine(t *testing.T) {
	st := Stats{Decisions: map[string]int{DecisionHit: 3, DecisionNew: 1, "remote": 2}}
	if got, want := st.DecisionLine(), "hit=3 new=1 vb=0 oc=0 dep=0 ev=0"; got != want {
		t.Fatalf("DecisionLine = %q, want %q", got, want)
	}
}
