package metal

import (
	"strings"
	"testing"

	"flashmc/internal/cc/cpp"
	"flashmc/internal/cc/parser"
	"flashmc/internal/cfg"
	"flashmc/internal/engine"
)

// fig2 is the checker from Figure 2 of the paper, verbatim in shape.
const fig2 = `
{ #include "flash-includes.h" }
sm wait_for_db {
	/* Declare two variables 'addr' and 'buf' that can
	 * match any integer expression. */
	decl { scalar } addr, buf;

	/* Checker begins in the first state (here 'start'). */
	start:
	{ WAIT_FOR_DB_FULL(addr); } ==> stop
	| { MISCBUS_READ_DB(addr, buf); } ==>
		{ err("Buffer not synchronized"); }
	;
}
`

// fig3 is the message-length checker from Figure 3.
const fig3 = `
{ #include "flash-includes.h" }
sm msglen_check {
	pat zero_assign =
		{ HANDLER_GLOBALS(header.nh.len) = LEN_NODATA } ;
	pat nonzero_assign =
		{ HANDLER_GLOBALS(header.nh.len) = LEN_WORD }
	|	{ HANDLER_GLOBALS(header.nh.len) = LEN_CACHELINE } ;

	decl { unsigned } keep, swap, wait, dec, null, type;
	pat send_data =
		{ PI_SEND(F_DATA, keep, swap, wait, dec, null) }
	|	{ IO_SEND(F_DATA, keep, swap, wait, dec, null) }
	|	{ NI_SEND(type, F_DATA, keep, wait, dec, null) } ;

	pat send_nodata =
		{ PI_SEND(F_NODATA, keep, swap, wait, dec, null) }
	|	{ IO_SEND(F_NODATA, keep, swap, wait, dec, null) }
	|	{ NI_SEND(type, F_NODATA, keep, wait, dec, null) } ;

	all:
		zero_assign ==> zero_len
	|	nonzero_assign ==> nonzero_len
	;

	zero_len:
		send_data ==> { err("data send, zero len"); }
	;

	nonzero_len:
		send_nodata ==> { err("nodata send, nonzero len"); }
	;
}
`

const miniHeader = `
#ifndef FLASH_INCLUDES_H
#define FLASH_INCLUDES_H
typedef unsigned long nodeid_t;
enum lenval { LEN_TEST = 3 };
#endif
`

func includeSrc() cpp.MapSource {
	return cpp.MapSource{"flash-includes.h": miniHeader}
}

func compile(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := Compile(src, Options{Include: includeSrc()})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

func runOn(t *testing.T, prog *Program, csrc string) []engine.Report {
	t.Helper()
	f, errs := parser.ParseText("t.c", csrc)
	if len(errs) != 0 {
		t.Fatalf("parse: %v", errs)
	}
	var out []engine.Report
	for _, fn := range f.Funcs() {
		reports, _ := engine.RunCov(cfg.Build(fn), prog.SM)
		out = append(out, reports...)
	}
	return out
}

func TestFig2Compiles(t *testing.T) {
	prog := compile(t, fig2)
	if prog.Name != "wait_for_db" {
		t.Errorf("name %q", prog.Name)
	}
	if prog.Decls["addr"] != "scalar" || prog.Decls["buf"] != "scalar" {
		t.Errorf("decls %v", prog.Decls)
	}
	if len(prog.SM.Rules) != 2 {
		t.Errorf("rules %d", len(prog.SM.Rules))
	}
	if prog.SM.Start != "start" {
		t.Errorf("start %q", prog.SM.Start)
	}
}

func TestFig2FindsRace(t *testing.T) {
	prog := compile(t, fig2)
	reports := runOn(t, prog, `
void handler(void) {
	int hdr;
	int val;
	MISCBUS_READ_DB(hdr, val);
}`)
	if len(reports) != 1 || !strings.Contains(reports[0].Msg, "Buffer not synchronized") {
		t.Fatalf("reports %v", reports)
	}
}

func TestFig2AcceptsSynchronized(t *testing.T) {
	prog := compile(t, fig2)
	reports := runOn(t, prog, `
void handler(void) {
	int hdr;
	int val;
	WAIT_FOR_DB_FULL(hdr);
	MISCBUS_READ_DB(hdr, val);
}`)
	if len(reports) != 0 {
		t.Fatalf("reports %v", reports)
	}
}

func TestFig2OnePathViolation(t *testing.T) {
	prog := compile(t, fig2)
	reports := runOn(t, prog, `
void handler(int c) {
	int hdr;
	int val;
	if (c) {
		WAIT_FOR_DB_FULL(hdr);
	}
	MISCBUS_READ_DB(hdr, val);
}`)
	if len(reports) != 1 {
		t.Fatalf("reports %v", reports)
	}
}

func TestFig3Compiles(t *testing.T) {
	prog := compile(t, fig3)
	if prog.Name != "msglen_check" {
		t.Errorf("name %q", prog.Name)
	}
	if prog.SM.Start != "all" {
		t.Errorf("start %q (the paper's checker starts in 'all')", prog.SM.Start)
	}
	if len(prog.PatternNames) != 4 {
		t.Errorf("pats %v", prog.PatternNames)
	}
	// all:2 rules + zero_len:1 + nonzero_len:1 = 4 rules; send pats
	// expand to 3 alternatives each.
	if len(prog.SM.Rules) != 4 {
		t.Errorf("rules %d", len(prog.SM.Rules))
	}
	for _, r := range prog.SM.Rules {
		if r.State == "zero_len" && len(r.Patterns) != 3 {
			t.Errorf("send_data expanded to %d patterns", len(r.Patterns))
		}
	}
}

func TestFig3Errors(t *testing.T) {
	prog := compile(t, fig3)
	reports := runOn(t, prog, `
void handler(void) {
	HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;
	NI_SEND(7, F_DATA, 1, 0, 1, 0);
}`)
	if len(reports) != 1 || !strings.Contains(reports[0].Msg, "data send, zero len") {
		t.Fatalf("reports %v", reports)
	}
	reports = runOn(t, prog, `
void handler(void) {
	HANDLER_GLOBALS(header.nh.len) = LEN_CACHELINE;
	IO_SEND(F_NODATA, 1, 0, 0, 1, 0);
}`)
	if len(reports) != 1 || !strings.Contains(reports[0].Msg, "nodata send, nonzero len") {
		t.Fatalf("reports %v", reports)
	}
}

func TestFig3CleanHandler(t *testing.T) {
	prog := compile(t, fig3)
	reports := runOn(t, prog, `
void handler(int c) {
	if (c) {
		HANDLER_GLOBALS(header.nh.len) = LEN_WORD;
		PI_SEND(F_DATA, 1, 0, 0, 1, 0);
	} else {
		HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;
		PI_SEND(F_NODATA, 1, 0, 0, 1, 0);
	}
}`)
	if len(reports) != 0 {
		t.Fatalf("reports %v", reports)
	}
}

func TestFig3LengthSetOnOnePathOnly(t *testing.T) {
	// The paper's most common bug shape: length assigned hundreds of
	// lines from the send, and one path misses the assignment. Here
	// the then-path sets nonzero then both paths send nodata.
	prog := compile(t, fig3)
	reports := runOn(t, prog, `
void handler(int c) {
	if (c) {
		HANDLER_GLOBALS(header.nh.len) = LEN_WORD;
	}
	PI_SEND(F_NODATA, 1, 0, 0, 1, 0);
}`)
	if len(reports) != 1 {
		t.Fatalf("reports %v", reports)
	}
}

func TestPrologueTypedefsAvailable(t *testing.T) {
	prog := compile(t, fig2)
	if _, ok := prog.Typedefs["nodeid_t"]; !ok {
		t.Error("prologue typedef not harvested")
	}
	if prog.EnumConsts["LEN_TEST"] != 3 {
		t.Errorf("enum consts %v", prog.EnumConsts)
	}
}

func TestCompileWithoutInclude(t *testing.T) {
	if _, err := Compile(fig2, Options{}); err != nil {
		t.Fatalf("compile without includes must be lenient: %v", err)
	}
}

func TestLOCCount(t *testing.T) {
	src := "sm x {\n/* comment\nmore */\nstart:\n{ f(); } ==> stop\n;\n}\n\n// trailing\n"
	if got := LOC(src); got != 5 {
		t.Errorf("LOC %d", got)
	}
}

func TestErrorUnknownPattern(t *testing.T) {
	_, err := Compile(`sm x { start: nosuchpat ==> stop ; }`, Options{})
	if err == nil || !strings.Contains(err.Error(), "unknown pattern") {
		t.Fatalf("err %v", err)
	}
}

func TestErrorBadAction(t *testing.T) {
	_, err := Compile(`sm x { decl { scalar } a; start: { f(a); } ==> { explode("no"); } ; }`, Options{})
	if err == nil || !strings.Contains(err.Error(), "unsupported action") {
		t.Fatalf("err %v", err)
	}
}

func TestErrorRuleWithoutTargetOrAction(t *testing.T) {
	_, err := Compile(`sm x { start: { f(); } ==> ; }`, Options{})
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestErrorNoStates(t *testing.T) {
	_, err := Compile(`sm x { decl { scalar } a; }`, Options{})
	if err == nil || !strings.Contains(err.Error(), "no states") {
		t.Fatalf("err %v", err)
	}
}

func TestErrorBadPatternText(t *testing.T) {
	_, err := Compile(`sm x { start: { f(((; } ==> stop ; }`, Options{})
	if err == nil || !strings.Contains(err.Error(), "bad pattern") {
		t.Fatalf("err %v", err)
	}
}

func TestWarnAction(t *testing.T) {
	prog := compile(t, `
sm w {
	decl { scalar } a;
	start:
	{ deprecated_op(a); } ==> { warn("deprecated operation", a); }
	;
}`)
	reports := runOn(t, prog, `void h(void) { int x; deprecated_op(x + 1); }`)
	if len(reports) != 1 {
		t.Fatalf("reports %v", reports)
	}
	if !strings.Contains(reports[0].Msg, "warning: deprecated operation x + 1") {
		t.Errorf("msg %q", reports[0].Msg)
	}
}

func TestPatReferencingPat(t *testing.T) {
	// Named pattern sets may reference earlier ones; alternatives
	// flatten transitively.
	prog := compile(t, `
sm chain {
	decl { scalar } a;
	pat base = { f(a) } | { g(a) } ;
	pat wide = base | { h(a) } ;
	start:
	wide ==> stop
	;
}`)
	if len(prog.SM.Rules) != 1 || len(prog.SM.Rules[0].Patterns) != 3 {
		t.Fatalf("rule patterns %d", len(prog.SM.Rules[0].Patterns))
	}
}

func TestTrackParsing(t *testing.T) {
	prog := compile(t, `
sm tr {
	decl { scalar } buf, x;
	track buf;
	start:
	{ buf = get(x); } ==> live
	;
	live:
	{ put(buf); } ==> start
	;
}`)
	if len(prog.TrackVars) != 1 || prog.TrackVars[0] != "buf" {
		t.Errorf("track vars %v", prog.TrackVars)
	}
	if len(prog.SM.Track) != 1 {
		t.Errorf("SM track %v", prog.SM.Track)
	}
}

// TestCondRuleSyntax exercises the cond extension: a pure-metal
// version of the paper's §6 value-sensitive conditional free.
func TestCondRuleSyntax(t *testing.T) {
	prog := compile(t, `
sm valsense {
	decl { scalar } x;
	cond has_buffer { maybe_free_buf(x) } ==> no_buffer , has_buffer ;
	has_buffer:
	{ DEC_DB_REF(x); } ==> no_buffer
	;
	no_buffer:
	{ DEC_DB_REF(x); } ==> { err("double free"); }
	;
}`)
	if len(prog.SM.Cond) != 1 {
		t.Fatalf("cond rules %d", len(prog.SM.Cond))
	}
	// True branch frees (so a second free reports); false branch keeps
	// the buffer (the free there is fine).
	reports := runOn(t, prog, `
void handler(void) {
	if (maybe_free_buf(0)) {
		DEC_DB_REF(0);
	} else {
		DEC_DB_REF(0);
	}
}`)
	if len(reports) != 1 {
		t.Fatalf("reports %v", reports)
	}
	if reports[0].Pos.Line != 4 {
		t.Errorf("wrong arm flagged: %v", reports[0].Pos)
	}
}

func TestCondRuleStaySemantics(t *testing.T) {
	// Naming the owning state as a target means "stay", including for
	// the negated branch.
	prog := compile(t, `
sm v2 {
	decl { scalar } x;
	cond start { is_ready(x) } ==> armed , start ;
	start:
	{ fire(x); } ==> { err("fired while unready"); }
	;
	armed:
	{ fire(x); } ==> stop
	;
}`)
	reports := runOn(t, prog, `
void handler(void) {
	if (is_ready(0)) {
		fire(0);
	}
	fire(0);
}`)
	// Inside the if: armed, fine. After the join the not-ready config
	// is still in start, so the second fire reports once.
	if len(reports) != 1 || reports[0].Pos.Line != 6 {
		t.Fatalf("reports %v", reports)
	}
}

func TestCondRuleErrors(t *testing.T) {
	if _, err := Compile(`sm x { cond s { f( } ==> a , b ; s: { g(); } ==> stop ; }`, Options{}); err == nil {
		t.Error("bad cond pattern accepted")
	}
	if _, err := Compile(`sm x { cond s { f(v) } ==> a ; s: { g(); } ==> stop ; }`, Options{}); err == nil {
		t.Error("cond without false target accepted")
	}
}

func TestErrorLineNumbers(t *testing.T) {
	src := "sm x {\n\tdecl { scalar } a;\n\tstart:\n\t{ f(a; } ==> stop\n\t;\n}"
	_, err := Compile(src, Options{})
	if err == nil {
		t.Fatal("expected error")
	}
	me, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if me.Line != 4 {
		t.Errorf("error line %d, want 4 (%v)", me.Line, me)
	}
}

func TestSemicolonRequiredBetweenStates(t *testing.T) {
	_, err := Compile(`
sm x {
	decl { scalar } a;
	start:
	{ f(a); } ==> next
	next:
	{ g(a); } ==> stop
	;
}`, Options{})
	if err == nil {
		t.Fatal("missing ';' between states accepted")
	}
}

func TestActionWithComment(t *testing.T) {
	prog := compile(t, `
sm c {
	decl { scalar } a;
	start:
	{ f(a); } ==> {
		/* explain */
		err("found"); // trailing
	}
	;
}`)
	reports := runOn(t, prog, `void h(void) { f(1); }`)
	if len(reports) != 1 {
		t.Fatalf("reports %v", reports)
	}
}

func TestMultipleActionsPerRule(t *testing.T) {
	prog := compile(t, `
sm m {
	decl { scalar } a;
	start:
	{ f(a); } ==> done { err("first"); err("second"); }
	;
}`)
	reports := runOn(t, prog, `void h(void) { f(1); }`)
	if len(reports) != 2 {
		t.Fatalf("reports %v", reports)
	}
}
