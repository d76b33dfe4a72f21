package core

import (
	"strings"
	"testing"

	"flashmc/internal/cc/cpp"
	"flashmc/internal/cc/parser"
	"flashmc/internal/engine"
)

func TestLoadMultiUnit(t *testing.T) {
	src := cpp.MapSource{
		"defs.h": `
#ifndef DEFS_H
#define DEFS_H
typedef unsigned long word_t;
enum sizes { SMALL = 2, BIG = 8 };
extern word_t shared;
#endif
`,
		"a.c": `
#include "defs.h"
word_t shared;
void produce(void) { shared = BIG; }
`,
		"b.c": `
#include "defs.h"
void consume(void) {
	word_t local;
	local = shared + SMALL;
}
`,
	}
	p, err := Load("multi", src, []string{"a.c", "b.c"})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.ParseErrors) != 0 {
		t.Fatalf("parse errors: %v", p.ParseErrors)
	}
	if len(p.Fns) != 2 {
		t.Fatalf("functions %d", len(p.Fns))
	}
	// Typedefs and enums from a.c's header must resolve in b.c, and
	// shared must type as word_t — no undeclared warnings.
	for _, w := range p.Warnings {
		if strings.Contains(w.Error(), "undeclared") {
			t.Errorf("cross-unit symbol lost: %v", w)
		}
	}
	if p.Fn("consume") == nil || p.Graph("consume") == nil {
		t.Error("lookup by name failed")
	}
	if p.Fn("nonexistent") != nil || p.Graph("nonexistent") != nil {
		t.Error("lookup invented a function")
	}
}

func TestSourceLOCCountsRootsOnly(t *testing.T) {
	src := cpp.MapSource{
		"big.h":  strings.Repeat("extern int x;\n", 100),
		"main.c": "#include \"big.h\"\nint y;\nvoid f(void) { y = x; }\n",
	}
	p, err := Load("loc", src, []string{"main.c"})
	if err != nil {
		t.Fatal(err)
	}
	if p.SourceLOC != 3 {
		t.Errorf("SourceLOC %d (headers must not count, per Table 1)", p.SourceLOC)
	}
}

func TestLoadReportsMissingFile(t *testing.T) {
	p, err := Load("missing", cpp.MapSource{}, []string{"nope.c"})
	if err == nil && len(p.ParseErrors) == 0 {
		t.Fatal("expected an error for a missing root file")
	}
}

func TestLoadLenientOnParseErrors(t *testing.T) {
	src := cpp.MapSource{
		"bad.c": "void ok(void) { }\nint @@@ broken\nvoid also_ok(void) { }\n",
	}
	p, _ := Load("bad", src, []string{"bad.c"})
	if len(p.ParseErrors) == 0 {
		t.Fatal("expected parse errors")
	}
	if p.Fn("ok") == nil {
		t.Error("recovery lost the first function")
	}
}

func TestRunSMAcrossFunctions(t *testing.T) {
	src := cpp.MapSource{
		"p.c": `
void f1(void) { MARKER(); }
void f2(void) { MARKER(); }
`,
	}
	p, err := Load("sm", src, []string{"p.c"})
	if err != nil {
		t.Fatal(err)
	}
	pat, err2 := parser.ParseStmtPattern("MARKER();", parser.PatternContext{})
	if err2 != nil {
		t.Fatal(err2)
	}
	sm := &engine.SM{Name: "m", Start: "s", Rules: []*engine.Rule{
		{State: "s", Patterns: []engine.Pattern{{Stmt: pat}},
			Action: func(c *engine.Ctx) { c.Report("marker") }},
	}}
	reports, _ := p.RunSMCov(sm)
	if len(reports) != 2 {
		t.Fatalf("reports %d", len(reports))
	}
	if reports[0].Fn != "f1" || reports[1].Fn != "f2" {
		t.Errorf("function attribution: %v", reports)
	}
}

func TestCountAcrossFunctions(t *testing.T) {
	src := cpp.MapSource{"p.c": `
void a(void) { int x; x = PROBE(1) + PROBE(2); }
void b(void) { PROBE(3); }
`}
	p, err := Load("count", src, []string{"p.c"})
	if err != nil {
		t.Fatal(err)
	}
	pat, err2 := parser.ParseExprPattern("PROBE(v)", parser.PatternContext{
		Wildcards: map[string]string{"v": ""}})
	if err2 != nil {
		t.Fatal(err2)
	}
	if got := p.Count(pat); got != 3 {
		t.Errorf("count %d", got)
	}
}

func TestCompileCheckerUsesProgramIncludes(t *testing.T) {
	src := cpp.MapSource{
		"env.h": "typedef unsigned long token_t;\n",
		"p.c":   "#include \"env.h\"\nvoid f(void) { }\n",
	}
	p, err := Load("inc", src, []string{"p.c"})
	if err != nil {
		t.Fatal(err)
	}
	mp, err := p.CompileChecker(`
{ #include "env.h" }
sm s {
	decl { scalar } a;
	start:
	{ use(a); } ==> stop
	;
}`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mp.Typedefs["token_t"]; !ok {
		t.Error("checker prologue did not resolve the program's header")
	}
}
