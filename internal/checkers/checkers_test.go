package checkers

import (
	"strings"
	"testing"

	"flashmc/internal/cc/cpp"
	"flashmc/internal/core"
	"flashmc/internal/engine"
	"flashmc/internal/flash"
)

// loadProto wraps one C body (after the flash include) as a protocol.
func loadProto(t *testing.T, body string) *core.Program {
	t.Helper()
	src := cpp.MapSource{
		"flash-includes.h": flash.IncludesH,
		"proto.c":          "#include \"flash-includes.h\"\n" + body,
	}
	p, err := core.Load("test", src, []string{"proto.c"})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(p.ParseErrors) != 0 {
		t.Fatalf("parse errors: %v", p.ParseErrors)
	}
	return p
}

// testSpec is a small protocol spec fixture.
func testSpec() *flash.Spec {
	return &flash.Spec{
		Protocol: "test",
		Hardware: []string{"h_local_get", "h_remote_put", "h_nostack"},
		Software: []string{"sw_flush"},
		Allowance: map[string]flash.LaneVector{
			"h_local_get":  {1, 0, 1, 1},
			"h_remote_put": {1, 1, 1, 1},
			"sw_flush":     {1, 1, 2, 2},
		},
		NoStack:         map[string]bool{"h_nostack": true},
		BufferFreeFns:   map[string]bool{"free_and_nak": true},
		BufferUseFns:    map[string]bool{"forward_data": true},
		CondFreeFns:     map[string]bool{"maybe_free_buf": true},
		DirWritebackFns: map[string]bool{},
	}
}

func msgs(reports []engine.Report) string {
	var parts []string
	for _, r := range reports {
		parts = append(parts, r.Msg)
	}
	return strings.Join(parts, " || ")
}

// ---- buffer race (§4) ----

func TestBufferRaceChecker(t *testing.T) {
	p := loadProto(t, `
void h_local_get(void) {
	unsigned a;
	unsigned b;
	MISCBUS_READ_DB(a, b);
	WAIT_FOR_DB_FULL(a);
	MISCBUS_READ_DB(a, b);
}`)
	c := NewBufferRace()
	reports, _ := c.CheckCov(p, testSpec())
	if len(reports) != 1 {
		t.Fatalf("reports: %v", reports)
	}
	if got := c.Applied(p); got != 2 {
		t.Errorf("applied %d", got)
	}
}

func TestBufferRaceOldMacro(t *testing.T) {
	p := loadProto(t, `
void h_x(void) {
	unsigned a;
	OLD_MISCBUS_READ(a);
}`)
	reports, _ := NewBufferRace().CheckCov(p, testSpec())
	if len(reports) != 1 {
		t.Fatalf("reports: %v", reports)
	}
}

// ---- message length (§5) ----

func TestMsglenChecker(t *testing.T) {
	p := loadProto(t, `
void h_uncached_read(int queue_full) {
	HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;
	if (queue_full) {
		NI_SEND(3, F_DATA, 1, 0, 1, 0);
	} else {
		NI_SEND(3, F_NODATA, 1, 0, 1, 0);
	}
}`)
	c := NewMsglen()
	reports, _ := c.CheckCov(p, testSpec())
	if len(reports) != 1 || !strings.Contains(reports[0].Msg, "data send, zero len") {
		t.Fatalf("reports: %v", reports)
	}
	if got := c.Applied(p); got != 2 {
		t.Errorf("applied %d", got)
	}
}

func TestMsglenRuntimeVariantFalsePositive(t *testing.T) {
	// The coma false-positive shape: send parameter chosen by the same
	// runtime condition as the length; two of four static paths are
	// infeasible, and the unpruned checker reports both (paper §5).
	p := loadProto(t, `
void h_coma_fp(int use_data) {
	if (use_data) {
		HANDLER_GLOBALS(header.nh.len) = LEN_WORD;
	} else {
		HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;
	}
	if (use_data) {
		PI_SEND(F_DATA, 1, 0, 0, 1, 0);
	} else {
		PI_SEND(F_NODATA, 1, 0, 0, 1, 0);
	}
}`)
	reports, _ := NewMsglen().CheckCov(p, testSpec())
	if len(reports) != 2 {
		t.Fatalf("expected the 2 infeasible-path reports, got: %v", reports)
	}
}

// ---- buffer management (§6) ----

func TestBufMgmtDoubleFree(t *testing.T) {
	p := loadProto(t, `
void h_local_get(int c) {
	DEC_DB_REF(0);
	if (c) {
		DEC_DB_REF(0);
	}
}`)
	reports, _ := NewBufferMgmt().CheckCov(p, testSpec())
	if len(reports) != 1 || !strings.Contains(reports[0].Msg, "freed twice") {
		t.Fatalf("reports: %v", reports)
	}
}

func TestBufMgmtLeakAtExit(t *testing.T) {
	p := loadProto(t, `
void h_local_get(int c) {
	if (c) {
		DEC_DB_REF(0);
	}
}`)
	reports, _ := NewBufferMgmt().CheckCov(p, testSpec())
	if len(reports) != 1 || !strings.Contains(reports[0].Msg, "not freed on exit") {
		t.Fatalf("reports: %v", reports)
	}
}

func TestBufMgmtSoftwareHandlerMustAllocate(t *testing.T) {
	p := loadProto(t, `
void sw_flush(void) {
	NI_SEND(2, F_NODATA, 1, 0, 1, 0);
}`)
	reports, _ := NewBufferMgmt().CheckCov(p, testSpec())
	if len(reports) != 1 || !strings.Contains(reports[0].Msg, "without a data buffer") {
		t.Fatalf("reports: %v", reports)
	}
}

func TestBufMgmtCleanHardwareHandler(t *testing.T) {
	p := loadProto(t, `
void h_local_get(int c) {
	unsigned b;
	if (c) {
		NI_SEND(2, F_NODATA, 1, 0, 1, 0);
	}
	DEC_DB_REF(0);
}`)
	reports, _ := NewBufferMgmt().CheckCov(p, testSpec())
	if len(reports) != 0 {
		t.Fatalf("reports: %v", reports)
	}
}

func TestBufMgmtAllocAfterFree(t *testing.T) {
	p := loadProto(t, `
void h_local_get(void) {
	unsigned b;
	DEC_DB_REF(0);
	b = ALLOC_DB();
	NI_SEND(2, F_DATA, 1, 0, 1, 0);
	DEC_DB_REF(b);
}`)
	reports, _ := NewBufferMgmt().CheckCov(p, testSpec())
	if len(reports) != 0 {
		t.Fatalf("reports: %v", reports)
	}
}

func TestBufMgmtAllocWhileHolding(t *testing.T) {
	p := loadProto(t, `
void h_local_get(void) {
	unsigned b;
	b = ALLOC_DB();
	DEC_DB_REF(b);
	DEC_DB_REF(b);
}`)
	// hardware handler starts has_buffer; alloc while holding = leak,
	// then free, free = double free.
	reports, _ := NewBufferMgmt().CheckCov(p, testSpec())
	if len(reports) != 2 {
		t.Fatalf("reports: %v", msgs(reports))
	}
}

func TestBufMgmtFreeViaTableFn(t *testing.T) {
	p := loadProto(t, `
void h_local_get(int c) {
	if (c) {
		free_and_nak();
		return;
	}
	DEC_DB_REF(0);
}`)
	reports, _ := NewBufferMgmt().CheckCov(p, testSpec())
	if len(reports) != 0 {
		t.Fatalf("reports: %v", reports)
	}
}

func TestBufMgmtAnnotationsSuppress(t *testing.T) {
	p := loadProto(t, `
void h_local_get(int c) {
	if (c) {
		no_free_needed();
		return;
	}
	DEC_DB_REF(0);
}`)
	reports, _ := NewBufferMgmt().CheckCov(p, testSpec())
	if len(reports) != 0 {
		t.Fatalf("no_free_needed did not suppress: %v", reports)
	}
}

func TestBufMgmtValueSensitiveFree(t *testing.T) {
	p := loadProto(t, `
void h_local_get(void) {
	if (maybe_free_buf()) {
		return;
	}
	DEC_DB_REF(0);
}`)
	reports, _ := NewBufferMgmt().CheckCov(p, testSpec())
	if len(reports) != 0 {
		t.Fatalf("value-sensitive free not honored: %v", reports)
	}
}

func TestBufMgmtValueSensitiveDoubleFree(t *testing.T) {
	p := loadProto(t, `
void h_local_get(void) {
	if (maybe_free_buf()) {
		DEC_DB_REF(0);
	}
}`)
	reports, _ := NewBufferMgmt().CheckCov(p, testSpec())
	// true arm: freed then freed again = double free; false arm: leak
	// at exit.
	if len(reports) != 2 {
		t.Fatalf("reports: %v", msgs(reports))
	}
}

func TestBufMgmtUseFnConsistency(t *testing.T) {
	p := loadProto(t, `
void forward_data(void) {
	DEC_DB_REF(0);
}`)
	reports, _ := NewBufferMgmt().CheckCov(p, testSpec())
	if len(reports) != 1 || !strings.Contains(reports[0].Msg, "buffer-user freed") {
		t.Fatalf("reports: %v", reports)
	}
}

func TestBufMgmtSubroutinesSkipped(t *testing.T) {
	p := loadProto(t, `
void plain_helper(void) {
	NI_SEND(2, F_NODATA, 1, 0, 1, 0);
}`)
	reports, _ := NewBufferMgmt().CheckCov(p, testSpec())
	if len(reports) != 0 {
		t.Fatalf("reports: %v", reports)
	}
}

// TestBufMgmtSection11Incident replays the paper's §11 war story: a
// handler manually double-incremented its buffer's reference count
// with a function "never" used elsewhere, making a later pair of
// DEC_DB_REFs look like a double free. The fixed extension flags the
// manual increment itself instead of silently misjudging the frees.
func TestBufMgmtSection11Incident(t *testing.T) {
	p := loadProto(t, `
void h_local_get(void) {
	INC_DB_REF(0); /* handed to a second consumer; refcount now 2 */
	DEC_DB_REF(0);
	DEC_DB_REF(0); /* the "obvious double free" an implementor removed */
}`)
	reports, _ := NewBufferMgmt().CheckCov(p, testSpec())
	var manual, doubleFree int
	for _, r := range reports {
		switch r.Rule {
		case "manual-incref":
			manual++
		case "double-free":
			doubleFree++
		}
	}
	if manual != 1 {
		t.Errorf("manual INC_DB_REF not flagged: %v", msgs(reports))
	}
	// The two-state SM still cannot count, so the second free is still
	// reported — exactly the paper's situation. The difference is that
	// the audit-this-increment report now sits right above it, which is
	// what would have saved the day of debugging.
	if doubleFree != 1 {
		t.Errorf("expected the (humanly-falsifiable) double-free report alongside the audit flag: %v", msgs(reports))
	}
}

// ---- allocation failure (§9) ----

func TestAllocCheckUnchecked(t *testing.T) {
	p := loadProto(t, `
void sw_flush(void) {
	unsigned b;
	unsigned v;
	b = ALLOC_DB();
	MISCBUS_WRITE_DB(b, v);
}`)
	c := NewAllocCheck()
	reports, _ := c.CheckCov(p, testSpec())
	if len(reports) != 1 || !strings.Contains(reports[0].Msg, "before allocation error check") {
		t.Fatalf("reports: %v", reports)
	}
	if got := c.Applied(p); got != 1 {
		t.Errorf("applied %d", got)
	}
}

func TestAllocCheckChecked(t *testing.T) {
	p := loadProto(t, `
void sw_flush(void) {
	unsigned b;
	unsigned v;
	b = ALLOC_DB();
	if (b == BUFFER_ERROR) {
		return;
	}
	MISCBUS_WRITE_DB(b, v);
}`)
	reports, _ := NewAllocCheck().CheckCov(p, testSpec())
	if len(reports) != 0 {
		t.Fatalf("reports: %v", reports)
	}
}

func TestAllocCheckDebugPrintFalsePositive(t *testing.T) {
	// The dyn_ptr FP shape: debugging code prints the buffer value
	// before the error check (paper §9.1).
	p := loadProto(t, `
void sw_flush(void) {
	unsigned b;
	b = ALLOC_DB();
	DEBUG_PRINT(b);
	if (b == BUFFER_ERROR) {
		return;
	}
}`)
	reports, _ := NewAllocCheck().CheckCov(p, testSpec())
	if len(reports) != 1 {
		t.Fatalf("reports: %v", reports)
	}
}

func TestAllocCheckSecondAllocTracksFresh(t *testing.T) {
	p := loadProto(t, `
void sw_flush(void) {
	unsigned b;
	unsigned c;
	unsigned v;
	b = ALLOC_DB();
	if (b == BUFFER_ERROR) { return; }
	c = ALLOC_DB();
	MISCBUS_WRITE_DB(c, v);
}`)
	reports, _ := NewAllocCheck().CheckCov(p, testSpec())
	if len(reports) != 1 {
		t.Fatalf("second allocation not tracked freshly: %v", reports)
	}
}

// ---- directory (§9) ----

func TestDirectoryMissingWriteback(t *testing.T) {
	p := loadProto(t, `
void h_local_get(unsigned a) {
	DIR_LOAD(DIR_ADDR(a));
	DIR_SET_STATE(2);
}`)
	reports, _ := NewDirectory().CheckCov(p, testSpec())
	if len(reports) != 1 || !strings.Contains(reports[0].Msg, "not written back") {
		t.Fatalf("reports: %v", reports)
	}
}

func TestDirectoryCleanLifecycle(t *testing.T) {
	p := loadProto(t, `
void h_local_get(unsigned a) {
	unsigned s;
	DIR_LOAD(DIR_ADDR(a));
	s = DIR_READ_STATE();
	DIR_SET_STATE(s + 1);
	DIR_WRITEBACK(DIR_ADDR(a));
}`)
	reports, _ := NewDirectory().CheckCov(p, testSpec())
	if len(reports) != 0 {
		t.Fatalf("reports: %v", reports)
	}
}

func TestDirectoryNakExemption(t *testing.T) {
	p := loadProto(t, `
void h_speculative(unsigned a, int miss) {
	DIR_LOAD(DIR_ADDR(a));
	DIR_SET_STATE(3);
	if (miss) {
		NI_SEND_RPLY(MSG_NAK, F_NODATA, 1, 0, 1, 0);
		return;
	}
	DIR_WRITEBACK(DIR_ADDR(a));
}`)
	reports, _ := NewDirectory().CheckCov(p, testSpec())
	if len(reports) != 0 {
		t.Fatalf("NAK exemption failed: %v", reports)
	}
}

func TestDirectoryUseBeforeLoad(t *testing.T) {
	p := loadProto(t, `
void h_local_get(void) {
	unsigned s;
	s = DIR_READ_STATE();
}`)
	reports, _ := NewDirectory().CheckCov(p, testSpec())
	if len(reports) != 1 || !strings.Contains(reports[0].Msg, "before DIR_LOAD") {
		t.Fatalf("reports: %v", reports)
	}
}

func TestDirectoryExplicitAddress(t *testing.T) {
	p := loadProto(t, `
void h_local_get(unsigned a) {
	DIR_LOAD(a << 4);
}`)
	reports, _ := NewDirectory().CheckCov(p, testSpec())
	if len(reports) != 1 || !strings.Contains(reports[0].Msg, "DIR_ADDR") {
		t.Fatalf("reports: %v", reports)
	}
}

func TestDirectoryApplied(t *testing.T) {
	p := loadProto(t, `
void h_local_get(unsigned a) {
	unsigned s;
	DIR_LOAD(DIR_ADDR(a));
	s = DIR_READ_STATE();
	DIR_SET_STATE(s);
	DIR_WRITEBACK(DIR_ADDR(a));
}`)
	if got := NewDirectory().Applied(p); got != 4 {
		t.Errorf("applied %d", got)
	}
}

// ---- send-wait (§9) ----

func TestSendWaitMissing(t *testing.T) {
	p := loadProto(t, `
void h_intervention(void) {
	PI_SEND(F_NODATA, 1, 0, 1, 1, 0);
}`)
	c := NewSendWait()
	reports, _ := c.CheckCov(p, testSpec())
	if len(reports) != 1 || !strings.Contains(reports[0].Msg, "never waits") {
		t.Fatalf("reports: %v", reports)
	}
	if got := c.Applied(p); got != 1 {
		t.Errorf("applied %d", got)
	}
}

func TestSendWaitCorrectPairing(t *testing.T) {
	p := loadProto(t, `
void h_intervention(void) {
	PI_SEND(F_NODATA, 1, 0, 1, 1, 0);
	WAIT_FOR_PI_REPLY();
	IO_SEND(F_NODATA, 1, 0, 1, 1, 0);
	WAIT_FOR_IO_REPLY();
}`)
	reports, _ := NewSendWait().CheckCov(p, testSpec())
	if len(reports) != 0 {
		t.Fatalf("reports: %v", reports)
	}
}

func TestSendWaitWrongInterface(t *testing.T) {
	p := loadProto(t, `
void h_intervention(void) {
	PI_SEND(F_NODATA, 1, 0, 1, 1, 0);
	WAIT_FOR_IO_REPLY();
}`)
	reports, _ := NewSendWait().CheckCov(p, testSpec())
	if len(reports) != 1 || !strings.Contains(reports[0].Msg, "IO interface for a PI reply") {
		t.Fatalf("reports: %v", reports)
	}
}

func TestSendWaitSecondSendBeforeWait(t *testing.T) {
	p := loadProto(t, `
void h_intervention(void) {
	PI_SEND(F_NODATA, 1, 0, 1, 1, 0);
	NI_SEND(2, F_NODATA, 1, 0, 1, 0);
	WAIT_FOR_PI_REPLY();
}`)
	reports, _ := NewSendWait().CheckCov(p, testSpec())
	if len(reports) != 1 || !strings.Contains(reports[0].Msg, "second send") {
		t.Fatalf("reports: %v", reports)
	}
}

func TestSendWaitNonWaitingSendIgnored(t *testing.T) {
	p := loadProto(t, `
void h_x(void) {
	PI_SEND(F_NODATA, 1, 0, 0, 1, 0);
}`)
	reports, _ := NewSendWait().CheckCov(p, testSpec())
	if len(reports) != 0 {
		t.Fatalf("reports: %v", reports)
	}
}

// ---- execution restrictions (§8) ----

func TestExecHookOmissions(t *testing.T) {
	p := loadProto(t, `
void h_good(void) {
	HANDLER_DEFS();
	HANDLER_PROLOGUE(3);
}
void h_missing_defs(void) {
	HANDLER_PROLOGUE(4);
}
void h_missing_prologue(void) {
	HANDLER_DEFS();
	DEC_DB_REF(0);
}
void helper_good(void) {
	HANDLER_DEFS();
	SUBROUTINE_PROLOGUE();
}
void helper_wrong_prologue(void) {
	HANDLER_DEFS();
	HANDLER_PROLOGUE(1);
}`)
	spec := testSpec()
	spec.Hardware = append(spec.Hardware, "h_good", "h_missing_defs", "h_missing_prologue")
	var hookReports []engine.Report
	reports, _ := NewExecRestrict().CheckCov(p, spec)
	for _, r := range reports {
		if r.Rule == "hook-missing" {
			hookReports = append(hookReports, r)
		}
	}
	if len(hookReports) != 3 {
		t.Fatalf("hook reports: %v", hookReports)
	}
}

func TestExecHandlerSignature(t *testing.T) {
	p := loadProto(t, `
int h_bad_ret(void) {
	HANDLER_DEFS();
	HANDLER_PROLOGUE(1);
	return 0;
}
void h_bad_params(int x) {
	HANDLER_DEFS();
	HANDLER_PROLOGUE(2);
}`)
	spec := testSpec()
	spec.Hardware = append(spec.Hardware, "h_bad_ret", "h_bad_params")
	var sig int
	reports, _ := NewExecRestrict().CheckCov(p, spec)
	for _, r := range reports {
		if r.Rule == "handler-sig" {
			sig++
		}
	}
	if sig != 2 {
		t.Fatalf("signature reports %d", sig)
	}
}

func TestExecDeprecatedWarning(t *testing.T) {
	p := loadProto(t, `
void helper(void) {
	HANDLER_DEFS();
	SUBROUTINE_PROLOGUE();
	OLD_MISCBUS_READ(4);
}`)
	var dep int
	reports, _ := NewExecRestrict().CheckCov(p, testSpec())
	for _, r := range reports {
		if r.Rule == "deprecated" {
			dep++
		}
	}
	if dep != 1 {
		t.Fatalf("deprecated reports %d", dep)
	}
}

func TestExecNoStackRules(t *testing.T) {
	p := loadProto(t, `
void h_nostack(void) {
	HANDLER_DEFS();
	HANDLER_PROLOGUE(9);
	NO_STACK_DECL();
	unsigned ok;
	unsigned arr[4];
	struct dir_entry_s big;
	unsigned *pp;
	pp = &ok;
	SET_STACKPTR();
	h_local_get();
	h_local_get();
	SET_STACKPTR();
	DEC_DB_REF(0);
}`)
	spec := testSpec()
	counts := map[string]int{}
	reports, _ := NewExecRestrict().CheckCov(p, spec)
	for _, r := range reports {
		counts[r.Rule]++
	}
	if counts["nostack-size"] != 2 { // array + big struct
		t.Errorf("nostack-size %d", counts["nostack-size"])
	}
	if counts["nostack-addr"] != 1 {
		t.Errorf("nostack-addr %d", counts["nostack-addr"])
	}
	if counts["stackptr-missing"] != 1 { // second h_local_get call
		t.Errorf("stackptr-missing %d", counts["stackptr-missing"])
	}
	if counts["stackptr-spurious"] != 1 { // SET_STACKPTR before DEC_DB_REF
		t.Errorf("stackptr-spurious %d", counts["stackptr-spurious"])
	}
}

func TestExecNoStackDeclMissing(t *testing.T) {
	p := loadProto(t, `
void h_nostack(void) {
	HANDLER_DEFS();
	HANDLER_PROLOGUE(9);
	DEC_DB_REF(0);
}`)
	var miss int
	reports, _ := NewExecRestrict().CheckCov(p, testSpec())
	for _, r := range reports {
		if r.Rule == "nostack-decl" {
			miss++
		}
	}
	if miss != 1 {
		t.Fatalf("nostack-decl reports %d", miss)
	}
}

func TestExecStats(t *testing.T) {
	p := loadProto(t, `
void a(int p1, int p2) {
	HANDLER_DEFS();
	SUBROUTINE_PROLOGUE();
	int x;
	int y;
}
void b(void) {
	HANDLER_DEFS();
	SUBROUTINE_PROLOGUE();
	unsigned z;
}`)
	h, v := ExecStats(p)
	if h != 2 || v != 5 {
		t.Errorf("handlers=%d vars=%d", h, v)
	}
}

// ---- no-float (§8) ----

func TestNoFloat(t *testing.T) {
	p := loadProto(t, `
void helper(void) {
	double d;
	int i;
	i = 1 + 2;
	d = 1.5;
}`)
	reports, _ := NewNoFloat().CheckCov(p, testSpec())
	if len(reports) == 0 {
		t.Fatal("float not detected")
	}
	for _, r := range reports {
		if !strings.Contains(r.Msg, "floating point") {
			t.Errorf("msg %q", r.Msg)
		}
	}
}

func TestNoFloatCleanCode(t *testing.T) {
	p := loadProto(t, `
void helper(void) {
	unsigned a;
	a = (a << 2) | 1;
}`)
	if reports, _ := NewNoFloat().CheckCov(p, testSpec()); len(reports) != 0 {
		t.Fatalf("reports: %v", reports)
	}
}

// ---- lanes (§7) ----

func TestLanesWithinAllowance(t *testing.T) {
	p := loadProto(t, `
void h_local_get(void) {
	PI_SEND(F_NODATA, 1, 0, 0, 1, 0);
	NI_SEND(2, F_NODATA, 1, 0, 1, 0);
	DEC_DB_REF(0);
}`)
	reports, _ := NewLanes().CheckCov(p, testSpec())
	if len(reports) != 0 {
		t.Fatalf("reports: %v", reports)
	}
}

func TestLanesExceeded(t *testing.T) {
	p := loadProto(t, `
void h_local_get(int c) {
	PI_SEND(F_NODATA, 1, 0, 0, 1, 0);
	if (c) {
		PI_SEND(F_NODATA, 1, 0, 0, 1, 0);
	}
}`)
	reports, _ := NewLanes().CheckCov(p, testSpec())
	if len(reports) != 1 || !strings.Contains(reports[0].Msg, "exceeds lane 0") {
		t.Fatalf("reports: %v", reports)
	}
}

func TestLanesInterprocedural(t *testing.T) {
	p := loadProto(t, `
void send_helper(void) {
	NI_SEND(2, F_NODATA, 1, 0, 1, 0);
}
void h_local_get(void) {
	NI_SEND(2, F_NODATA, 1, 0, 1, 0);
	send_helper();
}`)
	reports, _ := NewLanes().CheckCov(p, testSpec())
	if len(reports) != 1 {
		t.Fatalf("reports: %v", reports)
	}
	if !strings.Contains(reports[0].Msg, "h_local_get -> send_helper") {
		t.Errorf("backtrace missing: %q", reports[0].Msg)
	}
}

func TestLanesSpaceCheckResets(t *testing.T) {
	p := loadProto(t, `
void h_local_get(void) {
	NI_SEND(2, F_NODATA, 1, 0, 1, 0);
	WAIT_FOR_SPACE(2);
	NI_SEND(2, F_NODATA, 1, 0, 1, 0);
}`)
	reports, _ := NewLanes().CheckCov(p, testSpec())
	if len(reports) != 0 {
		t.Fatalf("space check not honored: %v", reports)
	}
}

func TestLanesLoopWithoutSendsIsFixedPoint(t *testing.T) {
	p := loadProto(t, `
void h_local_get(int n) {
	NI_SEND(2, F_NODATA, 1, 0, 1, 0);
	while (n > 0) {
		n--;
	}
	DEC_DB_REF(0);
}`)
	reports, _ := NewLanes().CheckCov(p, testSpec())
	if len(reports) != 0 {
		t.Fatalf("fixed-point loop flagged: %v", reports)
	}
}

func TestLanesRecursionWithoutSendsIsFixedPoint(t *testing.T) {
	p := loadProto(t, `
void spin(int n) {
	if (n > 0) {
		spin(n - 1);
	}
}
void h_local_get(void) {
	spin(5);
	NI_SEND(2, F_NODATA, 1, 0, 1, 0);
	DEC_DB_REF(0);
}`)
	reports, _ := NewLanes().CheckCov(p, testSpec())
	if len(reports) != 0 {
		t.Fatalf("recursion fixed point failed: %v", reports)
	}
}

func TestLanesLoopWithSendsFlagged(t *testing.T) {
	p := loadProto(t, `
void h_local_get(int n) {
	while (n > 0) {
		NI_SEND(2, F_NODATA, 1, 0, 1, 0);
		n--;
	}
}`)
	reports, _ := NewLanes().CheckCov(p, testSpec())
	if len(reports) != 1 {
		t.Fatalf("loop with sends not flagged: %v", reports)
	}
}

// ---- suite ----

func TestAllSuiteShape(t *testing.T) {
	suite := All()
	if len(suite) != 9 {
		t.Fatalf("suite size %d", len(suite))
	}
	names := map[string]bool{}
	for _, c := range suite {
		if c.LOC() <= 0 {
			t.Errorf("%s: LOC %d", c.Name(), c.LOC())
		}
		if names[c.Name()] {
			t.Errorf("duplicate checker name %s", c.Name())
		}
		names[c.Name()] = true
	}
}
