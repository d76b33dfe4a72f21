package checkers

import (
	"strings"
	"testing"

	"flashmc/internal/engine"
)

func TestDirectorySpuriousWriteback(t *testing.T) {
	p := loadProto(t, `
void h_spurious(unsigned a) {
	DIR_WRITEBACK(DIR_ADDR(a));
}`)
	reports, _ := NewDirectory().CheckCov(p, testSpec())
	if len(reports) != 1 || !strings.Contains(reports[0].Msg, "spurious") {
		t.Fatalf("reports: %v", reports)
	}
}

func TestDirectoryWritebackAfterReloadIsQuiet(t *testing.T) {
	p := loadProto(t, `
void h_reload(unsigned a) {
	unsigned s;
	DIR_LOAD(DIR_ADDR(a));
	s = DIR_READ_STATE();
	DIR_LOAD(DIR_ADDR(a + 1));
	DIR_SET_STATE(s);
	DIR_WRITEBACK(DIR_ADDR(a + 1));
}`)
	if reports, _ := NewDirectory().CheckCov(p, testSpec()); len(reports) != 0 {
		t.Fatalf("reports: %v", reports)
	}
}

func TestSendWaitIONeverWaits(t *testing.T) {
	p := loadProto(t, `
void h_io(void) {
	IO_SEND(F_NODATA, 1, 0, 1, 1, 0);
}`)
	reports, _ := NewSendWait().CheckCov(p, testSpec())
	if len(reports) != 1 || !strings.Contains(reports[0].Msg, "IO reply") {
		t.Fatalf("reports: %v", reports)
	}
}

func TestSendWaitSequentialPairs(t *testing.T) {
	// Back-to-back send/wait pairs are common in intervention
	// handlers; none may cross-contaminate.
	p := loadProto(t, `
void h_chain(void) {
	PI_SEND(F_NODATA, 1, 0, 1, 1, 0);
	WAIT_FOR_PI_REPLY();
	PI_SEND(F_NODATA, 1, 0, 1, 1, 0);
	WAIT_FOR_PI_REPLY();
	IO_SEND(F_NODATA, 1, 0, 1, 1, 0);
	WAIT_FOR_IO_REPLY();
}`)
	if reports, _ := NewSendWait().CheckCov(p, testSpec()); len(reports) != 0 {
		t.Fatalf("reports: %v", reports)
	}
}

func TestExecTooManyLocals(t *testing.T) {
	body := "void h_nostack(void) {\nHANDLER_DEFS();\nHANDLER_PROLOGUE(1);\nNO_STACK_DECL();\n"
	for i := 0; i < 20; i++ {
		body += "unsigned v" + string(rune('a'+i)) + ";\n"
	}
	body += "DEC_DB_REF(0);\n}\n"
	p := loadProto(t, body)
	var n int
	reports, _ := NewExecRestrict().CheckCov(p, testSpec())
	for _, r := range reports {
		if r.Rule == "nostack-count" {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("nostack-count reports %d", n)
	}
}

func TestExecDuplicateNoStackDecl(t *testing.T) {
	p := loadProto(t, `
void h_nostack(void) {
	HANDLER_DEFS();
	HANDLER_PROLOGUE(1);
	NO_STACK_DECL();
	NO_STACK_DECL();
	DEC_DB_REF(0);
}`)
	var n int
	reports, _ := NewExecRestrict().CheckCov(p, testSpec())
	for _, r := range reports {
		if r.Rule == "nostack-decl" {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("nostack-decl reports %d", n)
	}
}

func TestExecLateNoStackDecl(t *testing.T) {
	p := loadProto(t, `
void h_nostack(void) {
	HANDLER_DEFS();
	HANDLER_PROLOGUE(1);
	unsigned a;
	a = 1;
	a = 2;
	NO_STACK_DECL();
	DEC_DB_REF(0);
}`)
	found := false
	reports, _ := NewExecRestrict().CheckCov(p, testSpec())
	for _, r := range reports {
		if r.Rule == "nostack-decl" && strings.Contains(r.Msg, "open") {
			found = true
		}
	}
	if !found {
		t.Fatal("late NO_STACK_DECL not flagged")
	}
}

func TestAllocCheckNotEqualDirection(t *testing.T) {
	// Checking via != (success branch) also counts as checked.
	p := loadProto(t, `
void sw_flush(void) {
	unsigned b;
	unsigned v;
	b = ALLOC_DB();
	if (b != BUFFER_ERROR) {
		MISCBUS_WRITE_DB(b, v);
	}
}`)
	if reports, _ := NewAllocCheck().CheckCov(p, testSpec()); len(reports) != 0 {
		t.Fatalf("reports: %v", reports)
	}
}

func TestMsglenReplyLane(t *testing.T) {
	p := loadProto(t, `
void h_rply(void) {
	HANDLER_GLOBALS(header.nh.len) = LEN_CACHELINE;
	NI_SEND_RPLY(5, F_NODATA, 1, 0, 1, 0);
}`)
	reports, _ := NewMsglen().CheckCov(p, testSpec())
	if len(reports) != 1 || !strings.Contains(reports[0].Msg, "nodata send, nonzero len") {
		t.Fatalf("reports: %v", reports)
	}
}

func TestNoFloatThroughTypedef(t *testing.T) {
	p := loadProto(t, `
typedef double real_t;
void helper(void) {
	real_t r;
	r = 1;
}`)
	if reports, _ := NewNoFloat().CheckCov(p, testSpec()); len(reports) == 0 {
		t.Fatal("typedef'd double escaped the no-float checker")
	}
}

func TestBufferRaceWaitInLoopHeader(t *testing.T) {
	// A wait inside a loop condition still synchronizes the path that
	// executed it.
	p := loadProto(t, `
void h_loop(int n) {
	unsigned a;
	unsigned b;
	WAIT_FOR_DB_FULL(a);
	while (n > 0) {
		b = MISCBUS_READ_DB(a, 0);
		n--;
	}
}`)
	if reports, _ := NewBufferRace().CheckCov(p, testSpec()); len(reports) != 0 {
		t.Fatalf("reports: %v", reports)
	}
}

func TestLanesMultipleHandlersIndependent(t *testing.T) {
	// Two handlers sharing a sending subroutine are checked against
	// their own allowances.
	p := loadProto(t, `
void shared_send(void) {
	NI_SEND(2, F_NODATA, 1, 0, 1, 0);
}
void h_rich(void) {
	NI_SEND(2, F_NODATA, 1, 0, 1, 0);
	shared_send();
}
void h_poor(void) {
	shared_send();
}`)
	spec := testSpec()
	spec.Hardware = append(spec.Hardware, "h_rich", "h_poor")
	spec.Allowance["h_rich"] = [4]int{0, 0, 2, 0}
	spec.Allowance["h_poor"] = [4]int{0, 0, 1, 0}
	reports, _ := NewLanes().CheckCov(p, spec)
	if len(reports) != 0 {
		t.Fatalf("reports: %v", reports)
	}
	// Now starve h_rich.
	spec.Allowance["h_rich"] = [4]int{0, 0, 1, 0}
	reports, _ = NewLanes().CheckCov(p, spec)
	if len(reports) != 1 || reports[0].Fn != "h_rich" {
		t.Fatalf("reports: %v", reports)
	}
}

func TestCheckersQuietOnEmptyProgram(t *testing.T) {
	p := loadProto(t, `int just_a_global;`)
	for _, chk := range All() {
		if reports, _ := chk.CheckCov(p, testSpec()); len(reports) != 0 {
			t.Errorf("%s reported on an empty program: %v", chk.Name(), reports)
		}
	}
}

func TestReportStringFormat(t *testing.T) {
	p := loadProto(t, `
void h_x(void) {
	unsigned a;
	a = MISCBUS_READ_DB(a, 0);
}`)
	reports, _ := NewBufferRace().CheckCov(p, testSpec())
	if len(reports) != 1 {
		t.Fatal("setup")
	}
	s := reports[0].String()
	for _, want := range []string{"proto.c:", "wait_for_db", "h_x"} {
		if !strings.Contains(s, want) {
			t.Errorf("report string %q missing %q", s, want)
		}
	}
	var _ engine.Report = reports[0]
}
