package flash

import (
	"testing"
	"testing/quick"
)

func TestLaneOfSend(t *testing.T) {
	cases := map[string]int{
		MacroPISend:     0,
		MacroIOSend:     1,
		MacroNISend:     2,
		MacroNISendRply: 3,
		"DEC_DB_REF":    -1,
		"not_a_send":    -1,
	}
	for macro, want := range cases {
		if got := LaneOfSend(macro); got != want {
			t.Errorf("LaneOfSend(%s) = %d want %d", macro, got, want)
		}
	}
	for _, m := range SendMacros {
		if LaneOfSend(m) < 0 {
			t.Errorf("send macro %s has no lane", m)
		}
	}
}

func TestLaneVectorOps(t *testing.T) {
	var v LaneVector
	v = v.Add(2).Add(2).Add(0)
	if v != (LaneVector{1, 0, 2, 0}) {
		t.Errorf("v = %v", v)
	}
	m := v.Max(LaneVector{0, 3, 1, 0})
	if m != (LaneVector{1, 3, 2, 0}) {
		t.Errorf("max = %v", m)
	}
}

// Property: Max is commutative, idempotent, and bounds both inputs.
func TestLaneVectorMaxProperty(t *testing.T) {
	f := func(a0, a1, a2, a3, b0, b1, b2, b3 uint8) bool {
		a := LaneVector{int(a0 % 8), int(a1 % 8), int(a2 % 8), int(a3 % 8)}
		b := LaneVector{int(b0 % 8), int(b1 % 8), int(b2 % 8), int(b3 % 8)}
		m := a.Max(b)
		if m != b.Max(a) || m != m.Max(m) {
			return false
		}
		for i := range m {
			if a[i] > m[i] || b[i] > m[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestClassifyName(t *testing.T) {
	cases := map[string]HandlerKind{
		"h_local_get":    HardwareHandler,
		"sw_flush_task":  SoftwareHandler,
		"helper":         Subroutine,
		"h_":             Subroutine, // prefix alone is not a handler name
		"sw_":            Subroutine,
		"handle_message": Subroutine, // no underscore-delimited prefix
	}
	for name, want := range cases {
		if got := ClassifyName(name); got != want {
			t.Errorf("ClassifyName(%q) = %v want %v", name, got, want)
		}
	}
}

func TestSpecClassifyOverridesConvention(t *testing.T) {
	s := &Spec{
		Hardware: []string{"odd_name"},
		Software: []string{"another"},
	}
	if s.Classify("odd_name") != HardwareHandler {
		t.Error("spec hardware list ignored")
	}
	if s.Classify("another") != SoftwareHandler {
		t.Error("spec software list ignored")
	}
	if s.Classify("h_by_convention") != HardwareHandler {
		t.Error("convention fallback lost")
	}
	if s.Classify("plain") != Subroutine {
		t.Error("plain name classified as a handler")
	}
}

func TestPaperTableTotals(t *testing.T) {
	// Internal consistency of the transcribed data against the paper's
	// published totals.
	if got := Table2.Errors.Total(); got != 4 {
		t.Errorf("Table2 errors total %d", got)
	}
	if got := Table2.Applied.Total(); got != 59 {
		t.Errorf("Table2 applied total %d", got)
	}
	if got := Table3.Errors.Total(); got != 18 {
		t.Errorf("Table3 errors total %d", got)
	}
	if got := Table3.Applied.Total(); got != 1550 {
		t.Errorf("Table3 applied total %d", got)
	}
	if got := Table4.Errors.Total(); got != 9 {
		t.Errorf("Table4 errors total %d", got)
	}
	if got := Table4.Useful.Total(); got != 18 {
		t.Errorf("Table4 useful total %d", got)
	}
	if got := Table4.Useless.Total(); got != 25 {
		t.Errorf("Table4 useless total %d", got)
	}
	if got := Table5.Violations.Total(); got != 11 {
		t.Errorf("Table5 violations total %d", got)
	}
	if got := Table5.Handlers.Total(); got != 1064 {
		t.Errorf("Table5 handlers total %d", got)
	}
	if got := Table5.Vars.Total(); got != 3765 {
		t.Errorf("Table5 vars total %d", got)
	}
	if got := Table6.BufferAlloc.Applied.Total(); got != 97 {
		t.Errorf("Table6 alloc applied total %d", got)
	}
	if got := Table6.Directory.Applied.Total(); got != 1768 {
		t.Errorf("Table6 directory applied total %d", got)
	}
	if got := Table6.SendWait.Applied.Total(); got != 125 {
		t.Errorf("Table6 send-wait applied total %d", got)
	}

	// Table 7 columns must sum to the published totals.
	var loc, errs, fps int
	for _, row := range Table7 {
		loc += row.LOC
		errs += row.Err
		fps += row.FalsePos
	}
	if loc != Table7Totals.LOC || errs != Table7Totals.Err || fps != Table7Totals.FalsePos {
		t.Errorf("Table7 sums %d/%d/%d vs published %d/%d/%d",
			loc, errs, fps, Table7Totals.LOC, Table7Totals.Err, Table7Totals.FalsePos)
	}

	// Cross-table: Table 7's per-checker error counts match the
	// per-protocol tables.
	if Table7[1].Err != Table3.Errors.Total() { // message length
		t.Error("Table7 vs Table3 mismatch")
	}
	if Table7[3].Err != Table2.Errors.Total() { // buffer race
		t.Error("Table7 vs Table2 mismatch")
	}
	if Table7[0].Err != Table4.Errors.Total() { // buffer management
		t.Error("Table7 vs Table4 mismatch")
	}
	if Table7[2].Err != LanesResults.Errors.Total() { // lanes
		t.Error("Table7 vs lanes mismatch")
	}
}

func TestProtocolNamesCoverAllTables(t *testing.T) {
	for _, name := range ProtocolNames {
		if _, ok := Table1[name]; !ok {
			t.Errorf("Table1 missing %s", name)
		}
		for _, c := range []Counts{Table2.Errors, Table3.Applied,
			Table4.Useless, Table5.Handlers, Table6.Directory.FalsePos} {
			if _, ok := c[name]; !ok {
				t.Errorf("a table is missing protocol %s", name)
			}
		}
	}
}
