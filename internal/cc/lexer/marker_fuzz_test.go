package lexer_test

import (
	"strconv"
	"strings"
	"testing"

	"flashmc/internal/cc/cpp"
	"flashmc/internal/cc/lexer"
	"flashmc/internal/cc/token"
)

// refMarker is the marker grammar as the lexer documents it, built from
// strconv rather than from the lexer's hand parser.
func refMarker(line string) (file string, n int, ok bool) {
	rest, ok := strings.CutPrefix(line, "# ")
	if !ok {
		return "", 0, false
	}
	num, q, _ := strings.Cut(rest, " ")
	if num == "" || strings.Trim(num, "0123456789") != "" || !strings.HasPrefix(q, `"`) {
		return "", 0, false
	}
	n, err := strconv.Atoi(num)
	if err != nil {
		return "", 0, false
	}
	if file, err = strconv.Unquote(q); err != nil {
		return "", 0, false
	}
	return file, n, true
}

// FuzzLineMarker checks both ends of the cpp → lexer hand-off. Whatever
// the file name, the markers cpp writes for it read back as that name
// with the right lines. Whatever a '#' line in column 1 says, the lexer
// either takes it as a marker, exactly when refMarker does, or reports
// it as an unexpected directive and skips it; it never panics.
func FuzzLineMarker(f *testing.F) {
	f.Add("main.c", `# 5 "x.h"`)
	f.Add(`dir/a "quoted" \ name.h`, `# 5 "a\"b\\c"`)
	f.Add("ctl\x00\t\n\x7f.c", `#1 "x"`)
	f.Add("bad\xff\xfeutf8.c", `# +5 "x"`)
	f.Add("é.h", `# 5 "x" int y;`)
	f.Add("", `# 99999999999999999999 "x"`)
	f.Add("x.c", "# 5 \"\xff\"")
	f.Fuzz(func(t *testing.T, name, line string) {
		pp := cpp.New(cpp.MapSource{name: "x;\n"})
		out := pp.Process(name)
		if errs := pp.Errors(); len(errs) > 0 {
			t.Fatalf("cpp: %v", errs)
		}
		lx := lexer.New("seed.c", out)
		toks := lx.All()
		want := []token.Pos{{File: name, Line: 1, Col: 1}, {File: name, Line: 1, Col: 2}, {File: name, Line: 3, Col: 1}}
		if len(toks) != len(want) || len(lx.Errors()) > 0 {
			t.Fatalf("cpp output %q lexed to %v, errors %v", out, toks, lx.Errors())
		}
		for i, tok := range toks {
			if tok.Pos != want[i] {
				t.Errorf("token %d %q at %+v, want %+v", i, tok.Text, tok.Pos, want[i])
			}
		}

		line, _, _ = strings.Cut(line, "\n")
		lx = lexer.New("t.c", line+"\nint")
		toks = lx.All()
		if !strings.HasPrefix(line, "#") {
			return
		}
		if file, n, ok := refMarker(line); ok {
			if toks[0].Pos != (token.Pos{File: file, Line: n, Col: 1}) || len(lx.Errors()) > 0 {
				t.Errorf("marker %q: int at %+v, errors %v", line, toks[0].Pos, lx.Errors())
			}
			return
		}
		errs := lx.Errors()
		if toks[0].Pos != (token.Pos{File: "t.c", Line: 2, Col: 1}) || len(errs) != 1 ||
			!strings.Contains(errs[0].Error(), "unexpected preprocessor directive") {
			t.Errorf("non-marker %q: int at %+v, errors %v", line, toks[0].Pos, errs)
		}
	})
}
