package cpp

import (
	"fmt"
	"strings"
	"testing"

	"flashmc/internal/cc/lexer"
)

// lexPositions preprocesses main.c from files, lexes the result and
// renders each token, EOF included, as "file:line:col text".
func lexPositions(t *testing.T, files map[string]string) []string {
	t.Helper()
	p := New(MapSource(files))
	out := p.Process("main.c")
	if errs := p.Errors(); len(errs) > 0 {
		t.Fatalf("cpp: %v", errs)
	}
	lx := lexer.New("main.c", out)
	var got []string
	for _, tok := range lx.All() {
		got = append(got, fmt.Sprintf("%s %s", tok.Pos, tok.Text))
	}
	if errs := lx.Errors(); len(errs) > 0 {
		t.Fatalf("lexer: %v", errs)
	}
	return got
}

func TestConsecutiveLinesNeedNoMarker(t *testing.T) {
	out := New(MapSource{"main.c": "int a;\nint b;\n\nint c;\n"}).Process("main.c")
	if want := "# 1 \"main.c\"\nint a;\nint b;\n\nint c;\n\n"; out != want {
		t.Errorf("got %q, want %q", out, want)
	}
}

// TestTokenPositionsWhereLinesJump pins the position of every token,
// EOF included, wherever cpp's output line numbers stop following the
// source's: after a directive, a skipped #if block, a continuation
// line and an #include mid-file or at the end. The expected values were
// recorded while cpp still wrote a line marker before every output line.
func TestTokenPositionsWhereLinesJump(t *testing.T) {
	inc := "int i;\nint j;\n"
	cases := []struct {
		name  string
		files map[string]string
		want  []string
	}{
		{"directive", map[string]string{
			"main.c": "int a;\n#define N 2\nint b = N;\n"}, []string{
			"main.c:1:1 int", "main.c:1:5 a", "main.c:1:6 ;",
			"main.c:3:1 int", "main.c:3:5 b", "main.c:3:7 =", "main.c:3:9 2", "main.c:3:10 ;",
			"main.c:5:1 ",
		}},
		{"skipped if", map[string]string{
			"main.c": "int a;\n#if 0\nint gone;\nint gone2;\n#endif\nint b;\n"}, []string{
			"main.c:1:1 int", "main.c:1:5 a", "main.c:1:6 ;",
			"main.c:6:1 int", "main.c:6:5 b", "main.c:6:6 ;",
			"main.c:8:1 ",
		}},
		{"continuation", map[string]string{
			"main.c": "int a = 1 + \\\n  2;\nint b;\n"}, []string{
			"main.c:1:1 int", "main.c:1:5 a", "main.c:1:7 =", "main.c:1:9 1", "main.c:1:11 +", "main.c:1:13 2", "main.c:1:14 ;",
			"main.c:3:1 int", "main.c:3:5 b", "main.c:3:6 ;",
			"main.c:5:1 ",
		}},
		{"mid-file include", map[string]string{
			"main.c": "int a;\n#include \"inc.h\"\nint b;\n", "inc.h": inc}, []string{
			"main.c:1:1 int", "main.c:1:5 a", "main.c:1:6 ;",
			"inc.h:1:1 int", "inc.h:1:5 i", "inc.h:1:6 ;",
			"inc.h:2:1 int", "inc.h:2:5 j", "inc.h:2:6 ;",
			"main.c:3:1 int", "main.c:3:5 b", "main.c:3:6 ;",
			"main.c:5:1 ",
		}},
		{"include last", map[string]string{
			"main.c": "int a;\n#include \"inc.h\"\n", "inc.h": inc}, []string{
			"main.c:1:1 int", "main.c:1:5 a", "main.c:1:6 ;",
			"inc.h:1:1 int", "inc.h:1:5 i", "inc.h:1:6 ;",
			"inc.h:2:1 int", "inc.h:2:5 j", "inc.h:2:6 ;",
			"main.c:4:1 ",
		}},
		{"include last without newline", map[string]string{
			"main.c": "int a;\n#include \"inc.h\"", "inc.h": inc}, []string{
			"main.c:1:1 int", "main.c:1:5 a", "main.c:1:6 ;",
			"inc.h:1:1 int", "inc.h:1:5 i", "inc.h:1:6 ;",
			"inc.h:2:1 int", "inc.h:2:5 j", "inc.h:2:6 ;",
			"main.c:3:1 ",
		}},
		{"expansion starting with #", map[string]string{
			"main.c": "#define H #\nint a;\nH 7 \"x.h\"\nint b;\nint c;\n"}, []string{
			"main.c:2:1 int", "main.c:2:5 a", "main.c:2:6 ;",
			"main.c:4:1 int", "main.c:4:5 b", "main.c:4:6 ;",
			"main.c:5:1 int", "main.c:5:5 c", "main.c:5:6 ;",
			"main.c:7:1 ",
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := lexPositions(t, c.files)
			if strings.Join(got, "\n") != strings.Join(c.want, "\n") {
				t.Errorf("got\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(c.want, "\n"))
			}
		})
	}
}
