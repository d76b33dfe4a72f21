package cpp

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// pp preprocesses the files map starting at "main.c" and returns output
// with line markers stripped (for content assertions) plus errors.
func pp(t *testing.T, files map[string]string) (string, []error) {
	t.Helper()
	p := New(MapSource(files))
	out := p.Process("main.c")
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "# ") || strings.TrimSpace(l) == "" {
			continue
		}
		lines = append(lines, strings.TrimSpace(l))
	}
	return strings.Join(lines, "\n"), p.Errors()
}

func TestObjectMacro(t *testing.T) {
	out, errs := pp(t, map[string]string{
		"main.c": "#define N 4\nint a[N];\n",
	})
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	if out != "int a[4];" {
		t.Errorf("got %q", out)
	}
}

func TestFunctionMacro(t *testing.T) {
	out, errs := pp(t, map[string]string{
		"main.c": "#define MAX(a,b) ((a)>(b)?(a):(b))\nx = MAX(p+1, q*2);\n",
	})
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	want := "x = ((p+1)>(q*2)?(p+1):(q*2));"
	if strings.ReplaceAll(out, " ", "") != strings.ReplaceAll(want, " ", "") {
		t.Errorf("got %q want %q", out, want)
	}
}

func TestFunctionMacroNotInvokedWithoutParens(t *testing.T) {
	out, _ := pp(t, map[string]string{
		"main.c": "#define F(x) x+1\nint y = F;\n",
	})
	if out != "int y = F;" {
		t.Errorf("got %q", out)
	}
}

func TestNestedExpansion(t *testing.T) {
	out, errs := pp(t, map[string]string{
		"main.c": "#define A B\n#define B C\n#define C 7\nint v = A;\n",
	})
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	if out != "int v = 7;" {
		t.Errorf("got %q", out)
	}
}

func TestRecursiveMacroTerminates(t *testing.T) {
	out, _ := pp(t, map[string]string{
		"main.c": "#define X X+1\nint v = X;\n",
	})
	if !strings.Contains(out, "X") {
		t.Errorf("self-reference must survive: %q", out)
	}
}

func TestMutuallyRecursiveMacrosTerminate(t *testing.T) {
	out, _ := pp(t, map[string]string{
		"main.c": "#define A B\n#define B A\nint v = A;\n",
	})
	if out != "int v = A;" && out != "int v = B;" {
		t.Errorf("got %q", out)
	}
}

func TestStringize(t *testing.T) {
	out, errs := pp(t, map[string]string{
		"main.c": "#define S(x) #x\nchar *p = S(a + b);\n",
	})
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	if !strings.Contains(out, `"a + b"`) {
		t.Errorf("got %q", out)
	}
}

func TestPaste(t *testing.T) {
	out, errs := pp(t, map[string]string{
		"main.c": "#define GLUE(a,b) a##b\nint GLUE(foo,bar) = 1;\n",
	})
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	if out != "int foobar = 1;" {
		t.Errorf("got %q", out)
	}
}

func TestConditionals(t *testing.T) {
	src := `#define MODE 2
#if MODE == 1
int a;
#elif MODE == 2
int b;
#else
int c;
#endif
#ifdef MODE
int d;
#endif
#ifndef MODE
int e;
#endif
`
	out, errs := pp(t, map[string]string{"main.c": src})
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	if out != "int b;\nint d;" {
		t.Errorf("got %q", out)
	}
}

func TestNestedConditionals(t *testing.T) {
	src := `#if 0
#if 1
int a;
#endif
#else
#if defined(X)
int b;
#else
int c;
#endif
#endif
`
	out, errs := pp(t, map[string]string{"main.c": src})
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	if out != "int c;" {
		t.Errorf("got %q", out)
	}
}

func TestCondExpressionOperators(t *testing.T) {
	cases := map[string]bool{
		"1 + 2 == 3":              true,
		"(1 << 4) == 16":          true,
		"7 / 2 == 3 && 7 % 2":     true,
		"!0 && ~0 == -1":          true,
		"1 ? 10 : 20":             true,
		"0 ? 10 : 0":              false,
		"UNDEFINED_THING":         false,
		"defined(FOO)":            false,
		"'A' == 65":               true,
		"0x10 == 16":              true,
		"2 > 1 || 1 > 2":          true,
		"5 >= 5 && 4 <= 5":        true,
		"(3 ^ 1) == 2 && (3 | 4)": true,
	}
	for expr, want := range cases {
		src := "#if " + expr + "\nint yes;\n#else\nint no;\n#endif\n"
		out, errs := pp(t, map[string]string{"main.c": src})
		if len(errs) != 0 {
			t.Errorf("%q: errors %v", expr, errs)
			continue
		}
		got := out == "int yes;"
		if got != want {
			t.Errorf("%q: got %v want %v", expr, got, want)
		}
	}
}

// #if reads as C says: escapes in char literals, lazy && || and ?:.
func TestCondLikeC(t *testing.T) {
	cases := map[string]bool{
		`'\x41' == 65`:             true,
		`'\101' == 65`:             true,
		`'\n' == 10`:               true,
		"0 && 1/0":                 false,
		"1 || 1/0":                 true,
		"1 ? 2 : 1/0":              true,
		"0 ? 1/0 : 0":              false,
		"0xFFFFFFFFFFFFFFFF == -1": true,
		"10u == 10":                true,
	}
	for expr, want := range cases {
		src := "#if " + expr + "\nint yes;\n#else\nint no;\n#endif\n"
		out, errs := pp(t, map[string]string{"main.c": src})
		if len(errs) != 0 {
			t.Errorf("%q: errors %v", expr, errs)
			continue
		}
		if got := out == "int yes;"; got != want {
			t.Errorf("%q: got %v want %v", expr, got, want)
		}
	}
}

// Whatever is not an integer constant expression is one error at the
// directive's own line, with no position inside the expression text.
func TestBadCondExpression(t *testing.T) {
	for _, expr := range []string{
		"1 2", "1,2", "f(1)", "x = 1", "sizeof(int)", "", "1/0", "1%0",
		"0x", "08", "(1", "1 ? 2", "1.5", `"s"`, "defined(", "M", "+",
	} {
		src := "#define M 1 +\n#if 0\n#elif " + expr + "\nint x;\n#endif\n#if " + expr + "\nint x;\n#endif\n"
		out, errs := pp(t, map[string]string{"main.c": src})
		if out != "" {
			t.Errorf("%q: bad #if taken: %q", expr, out)
		}
		if len(errs) != 2 {
			t.Errorf("%q: want one error per directive, got %v", expr, errs)
			continue
		}
		for i, line := range []string{"main.c:3: ", "main.c:6: "} {
			msg := errs[i].Error()
			if !strings.HasPrefix(msg, line+"bad #if expression: ") &&
				!(expr == "defined(" && msg == line+"malformed defined()") {
				t.Errorf("%q: got %q", expr, msg)
			}
			if strings.Contains(msg, "<pattern>") || strings.Contains(msg, ":1:") {
				t.Errorf("%q: position leaked: %q", expr, msg)
			}
		}
	}
}

func TestInclude(t *testing.T) {
	files := map[string]string{
		"main.c": "#include \"defs.h\"\nint x = VAL;\n",
		"defs.h": "#define VAL 99\n",
	}
	out, errs := pp(t, files)
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	if out != "int x = 99;" {
		t.Errorf("got %q", out)
	}
}

func TestIncludeGuard(t *testing.T) {
	files := map[string]string{
		"main.c": "#include \"g.h\"\n#include \"g.h\"\nint x = N;\n",
		"g.h":    "#ifndef G_H\n#define G_H\n#define N 5\nint decl;\n#endif\n",
	}
	out, errs := pp(t, files)
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	if out != "int decl;\nint x = 5;" {
		t.Errorf("got %q", out)
	}
}

func TestMutualIncludeGuards(t *testing.T) {
	out, errs := pp(t, map[string]string{
		"main.c": "#include \"a.h\"\n#include \"b.h\"\nint x = A + B;\n",
		"a.h":    "#ifndef A_H\n#define A_H\n#include \"b.h\"\n#define A 1\n#endif\n",
		"b.h":    "#ifndef B_H\n#define B_H\n#include \"a.h\"\n#define B 2\n#endif\n",
	})
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	if out != "int x = 1 + 2;" {
		t.Errorf("got %q", out)
	}
}

// within fails t unless f returns within d.
func within(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("still running after %v", d)
	}
}

// fanOutCycle is an unguarded include cycle in which each file
// includes the other twice: every path hits the depth limit, and
// there are 2^64 of them.
var fanOutCycle = map[string]string{
	"main.c": "#include \"a.h\"\nint x;\n",
	"a.h":    "#include \"b.h\"\n#include \"b.h\"\n",
	"b.h":    "#include \"a.h\"\n#include \"a.h\"\n",
}

func TestIncludeCycleFanOut(t *testing.T) {
	within(t, time.Second, func() {
		out, errs := pp(t, fanOutCycle)
		if len(errs) != 1 || !strings.Contains(errs[0].Error(), "include depth exceeds") {
			t.Errorf("want one depth error, got %v", errs)
		}
		if out != "int x;" {
			t.Errorf("got %q", out)
		}
	})
}

// doublingChain defines M0..M20, each Mi expanding to two M(i-1): M20
// names 2^20 tokens.
func doublingChain() string {
	var b strings.Builder
	b.WriteString("#define M0 x\n")
	for i := 1; i <= 20; i++ {
		fmt.Fprintf(&b, "#define M%d M%d M%d\n", i, i-1, i-1)
	}
	return b.String()
}

func TestExpansionBudget(t *testing.T) {
	for _, tail := range []string{"int a = M20;\nint b;\n", "#if M20\n#endif\nint b;\n"} {
		within(t, time.Second, func() {
			src := doublingChain() + tail
			out, errs := pp(t, map[string]string{"main.c": src})
			if len(errs) != 1 || !strings.Contains(errs[0].Error(), fmt.Sprintf("main.c:22: macro expansion exceeds %d tokens", maxExpansion)) {
				t.Errorf("%q: want one budget error, got %v", tail, errs)
			}
			if out != "int b;" {
				t.Errorf("%q: got %q", tail, out)
			}
		})
	}
	// Under the budget, the same chain expands in full. The budget
	// counts intermediate tokens too: M14 makes 2^15 - 2 of them on the
	// way to its 2^14 x's.
	out, errs := pp(t, map[string]string{"main.c": doublingChain() + "int a = M14;\n"})
	if len(errs) != 0 || strings.Count(out, "x") != 1<<14 {
		t.Errorf("M14: %d x's, errors %v", strings.Count(out, "x"), errs)
	}
}

func TestIncludeSearchPath(t *testing.T) {
	files := MapSource{
		"main.c":         "#include <sys/defs.h>\nint x = V;\n",
		"inc/sys/defs.h": "#define V 3\n",
	}
	p := New(files, "inc")
	out := p.Process("main.c")
	if len(p.Errors()) != 0 {
		t.Fatal(p.Errors())
	}
	if !strings.Contains(out, "int x = 3;") {
		t.Errorf("got %q", out)
	}
}

func TestMissingInclude(t *testing.T) {
	_, errs := pp(t, map[string]string{"main.c": "#include \"nope.h\"\n"})
	if len(errs) == 0 {
		t.Fatal("expected error")
	}
}

func TestErrorDirective(t *testing.T) {
	_, errs := pp(t, map[string]string{"main.c": "#if 0\n#error hidden\n#endif\n#error visible\n"})
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "visible") {
		t.Fatalf("got %v", errs)
	}
}

func TestUndef(t *testing.T) {
	out, _ := pp(t, map[string]string{
		"main.c": "#define A 1\n#undef A\n#ifdef A\nint yes;\n#else\nint no;\n#endif\n",
	})
	if out != "int no;" {
		t.Errorf("got %q", out)
	}
}

func TestLineContinuation(t *testing.T) {
	out, errs := pp(t, map[string]string{
		"main.c": "#define LONG(a) \\\n  (a + 1)\nint x = LONG(2);\n",
	})
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	if strings.ReplaceAll(out, " ", "") != "intx=(2+1);" {
		t.Errorf("got %q", out)
	}
}

func TestKeepMacros(t *testing.T) {
	p := New(MapSource{
		"main.c": "#define WAIT_FOR_DB_FULL(x) do_wait(x)\nWAIT_FOR_DB_FULL(addr);\n",
	})
	p.KeepMacros["WAIT_FOR_DB_FULL"] = true
	out := p.Process("main.c")
	if !strings.Contains(out, "WAIT_FOR_DB_FULL(addr);") {
		t.Errorf("kept macro was expanded: %q", out)
	}
}

func TestCommentsStrippedBeforeDirectives(t *testing.T) {
	out, errs := pp(t, map[string]string{
		"main.c": "/* comment \n#define HIDDEN 1\n*/\nint x;\n",
	})
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	if out != "int x;" {
		t.Errorf("got %q", out)
	}
}

func TestStringLiteralsNotExpanded(t *testing.T) {
	out, _ := pp(t, map[string]string{
		"main.c": "#define FOO 1\nchar *s = \"FOO\";\n",
	})
	if !strings.Contains(out, `"FOO"`) {
		t.Errorf("macro expanded inside string: %q", out)
	}
}

func TestUnterminatedIf(t *testing.T) {
	_, errs := pp(t, map[string]string{"main.c": "#if 1\nint x;\n"})
	if len(errs) == 0 {
		t.Fatal("expected unterminated #if error")
	}
}

func TestMalformedDirectives(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"#ifdef\nint x;\n#endif\n", "main.c:1: #ifdef expects one macro name"},
		{"#ifndef\nint x;\n#endif\n", "main.c:1: #ifndef expects one macro name"},
		{"#ifdef 1\nint x;\n#endif\n", "main.c:1: #ifdef expects one macro name"},
		{"#ifndef A B\nint x;\n#endif\n", "main.c:1: #ifndef expects one macro name"},
		{"#define F(x, x) x\nint F(1);\n", "main.c:1: duplicate macro parameter x"},
		{"#define F(x, 1) x\n", "main.c:1: malformed macro parameter list"},
	} {
		out, errs := pp(t, map[string]string{"main.c": tc.src})
		if len(errs) != 1 || !strings.HasPrefix(errs[0].Error(), tc.want) {
			t.Errorf("%q: errors %v, want one %q", tc.src, errs, tc.want)
		}
		if strings.Contains(out, "int x;") {
			t.Errorf("%q: malformed conditional taken", tc.src)
		}
	}
}

func TestElifWithoutIf(t *testing.T) {
	_, errs := pp(t, map[string]string{"main.c": "#elif 1\n"})
	if len(errs) == 0 {
		t.Fatal("expected error")
	}
}

// Property: evaluating integer arithmetic in #if matches Go semantics.
func TestCondArithmeticProperty(t *testing.T) {
	f := func(a, b int16, c uint8) bool {
		// Build an expression with known value.
		want := int64(a)+int64(b)*int64(c%16+1) != 0
		expr := "" // (a + b*(c%16+1)) != 0
		expr = "(" + itoa(int64(a)) + " + " + itoa(int64(b)) + "*" + itoa(int64(c%16+1)) + ") != 0"
		src := "#if " + expr + "\nint yes;\n#else\nint no;\n#endif\n"
		p := New(MapSource{"main.c": src})
		out := p.Process("main.c")
		if len(p.Errors()) != 0 {
			return false
		}
		got := strings.Contains(out, "int yes;")
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func itoa(v int64) string {
	if v < 0 {
		return "(0 - " + itoa(-v) + ")"
	}
	s := ""
	if v == 0 {
		return "0"
	}
	for v > 0 {
		s = string(rune('0'+v%10)) + s
		v /= 10
	}
	return s
}

// Property: preprocessing never panics on arbitrary directive soup.
func TestNoCrashProperty(t *testing.T) {
	f := func(body string) bool {
		p := New(MapSource{"main.c": body})
		p.Process("main.c")
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLayeredSource(t *testing.T) {
	primary := MapSource{"a.h": "int from_primary;\n"}
	fallback := MapSource{"a.h": "int shadowed;\n", "b.h": "int from_fallback;\n"}
	src := Layered(primary, fallback)
	if text, err := src.ReadFile("a.h"); err != nil || !strings.Contains(text, "from_primary") {
		t.Errorf("primary not preferred: %q %v", text, err)
	}
	if text, err := src.ReadFile("b.h"); err != nil || !strings.Contains(text, "from_fallback") {
		t.Errorf("fallback not consulted: %q %v", text, err)
	}
	if _, err := src.ReadFile("missing.h"); err == nil {
		t.Error("missing file found")
	}
}
