package lexer

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"flashmc/internal/cc/token"
)

func kinds(src string) []token.Kind {
	l := New("t.c", src)
	var ks []token.Kind
	for _, t := range l.All() {
		ks = append(ks, t.Kind)
	}
	return ks
}

func TestBasicTokens(t *testing.T) {
	src := `int x = 42; /* block */ // line
char *p = "hi\n"; x += 0x1f;`
	want := []token.Kind{
		token.KwInt, token.Ident, token.Assign, token.IntLit, token.Semi,
		token.KwChar, token.Star, token.Ident, token.Assign, token.StringLit, token.Semi,
		token.Ident, token.AddAssign, token.IntLit, token.Semi,
		token.EOF,
	}
	got := kinds(src)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestOperatorsLongestMatch(t *testing.T) {
	cases := map[string]token.Kind{
		"<<=": token.ShlAssign,
		">>=": token.ShrAssign,
		"...": token.Ellipsis,
		"->":  token.Arrow,
		"++":  token.Inc,
		"--":  token.Dec,
		"==":  token.Eq,
		"!=":  token.NotEq,
		"&&":  token.LogicalAnd,
		"||":  token.LogicalOr,
		"<<":  token.Shl,
		">>":  token.Shr,
		"%=":  token.ModAssign,
		"^=":  token.XorAssign,
	}
	for src, want := range cases {
		got := kinds(src)
		if got[0] != want {
			t.Errorf("%q: got %v want %v", src, got[0], want)
		}
		if got[1] != token.EOF {
			t.Errorf("%q: expected single token, got %v", src, got)
		}
	}
}

func TestNumbers(t *testing.T) {
	cases := []struct {
		src  string
		kind token.Kind
	}{
		{"0", token.IntLit},
		{"123", token.IntLit},
		{"0x1F", token.IntLit},
		{"0xdeadBEEF", token.IntLit},
		{"077", token.IntLit},
		{"42u", token.IntLit},
		{"42UL", token.IntLit},
		{"1.5", token.FloatLit},
		{".5", token.FloatLit},
		{"1e10", token.FloatLit},
		{"1.5e-3", token.FloatLit},
		{"2.0f", token.FloatLit},
		{"3E+4", token.FloatLit},
	}
	for _, c := range cases {
		l := New("t.c", c.src)
		tok := l.Next()
		if tok.Kind != c.kind {
			t.Errorf("%q: got %v want %v", c.src, tok.Kind, c.kind)
		}
		if tok.Text != c.src {
			t.Errorf("%q: text %q", c.src, tok.Text)
		}
		if len(l.Errors()) != 0 {
			t.Errorf("%q: unexpected errors %v", c.src, l.Errors())
		}
	}
}

func TestEnotFloatWithoutExponentDigits(t *testing.T) {
	// "1e" followed by an identifier char is int then ident ("1" "e").
	got := kinds("3ex")
	// 3 lexes as IntLit with (possibly empty) suffix scan; "ex" is ident.
	if got[0] != token.IntLit || got[1] != token.Ident {
		t.Errorf("got %v", got)
	}
}

func TestCharAndStringEscapes(t *testing.T) {
	cases := []string{`'a'`, `'\n'`, `'\0'`, `'\x1f'`, `'\\'`, `"abc"`, `"a\"b"`, `"\t\x41\101"`}
	for _, src := range cases {
		l := New("t.c", src)
		tok := l.Next()
		if tok.Text != src {
			t.Errorf("%q: got text %q", src, tok.Text)
		}
		if len(l.Errors()) != 0 {
			t.Errorf("%q: errors %v", src, l.Errors())
		}
	}
}

func TestUnterminatedLiterals(t *testing.T) {
	for _, src := range []string{`"abc`, `'a`, "/* never closed"} {
		l := New("t.c", src)
		l.All()
		if len(l.Errors()) == 0 {
			t.Errorf("%q: expected error", src)
		}
	}
}

func TestPositions(t *testing.T) {
	src := "int\n  x;\n"
	l := New("f.c", src)
	toks := l.All()
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("int at %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("x at %v", toks[1].Pos)
	}
	if toks[1].Pos.File != "f.c" {
		t.Errorf("file %q", toks[1].Pos.File)
	}
}

func TestLineMarkers(t *testing.T) {
	src := "# 10 \"inc.h\"\nint x;\n# 3 \"main.c\"\nint y;\n"
	l := New("t.c", src)
	toks := l.All()
	if toks[0].Pos.File != "inc.h" || toks[0].Pos.Line != 10 {
		t.Errorf("x decl at %v", toks[0].Pos)
	}
	if toks[3].Pos.File != "main.c" || toks[3].Pos.Line != 3 {
		t.Errorf("y decl at %v", toks[3].Pos)
	}
}

// Only the exact marker cpp writes moves positions; near misses that
// fmt.Sscanf("# %d %q") used to accept are directive errors now.
func TestLineMarkerGrammar(t *testing.T) {
	for m, file := range map[string]string{
		`# 5 "x"`:               "x",
		`# 05 "x"`:              "x",
		`# 5 ""`:                "",
		`# 5 "dir/é.h"`:         "dir/é.h",
		`# 5 "a\"b\\c\x00\xff"`: "a\"b\\c\x00\xff",
	} {
		toks := New("t.c", m+"\nint").All()
		if toks[0].Pos != (token.Pos{File: file, Line: 5, Col: 1}) {
			t.Errorf("%s: int at %v, want %q:5:1", m, toks[0].Pos, file)
		}
	}
	for _, m := range []string{
		`#1 "x"`,
		`# +5 "x"`,
		`# -5 "x"`,
		`# 5 "x" int y;`,
		`# 5  "x"`,
		`# 5 "x"` + "\r",
		`# 5 x`,
		`# 5 'x'`,
		"# 5 `x`",
		`# 5 "x`,
		`# 5 "x\q"`,
		`# 99999999999999999999 "x"`,
		`# 5`,
		`#`,
	} {
		l := New("t.c", m+"\nint")
		toks := l.All()
		if toks[0].Pos != (token.Pos{File: "t.c", Line: 2, Col: 1}) {
			t.Errorf("%q: int at %v, want t.c:2:1", m, toks[0].Pos)
		}
		if errs := l.Errors(); len(errs) != 1 ||
			!strings.Contains(errs[0].Error(), "t.c:1:1: unexpected preprocessor directive") {
			t.Errorf("%q: errors %v", m, errs)
		}
	}
}

func TestKeywordsVsIdents(t *testing.T) {
	got := kinds("while whiles struct structx if iffy")
	want := []token.Kind{token.KwWhile, token.Ident, token.KwStruct,
		token.Ident, token.KwIf, token.Ident, token.EOF}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("tok %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestIllegalChar(t *testing.T) {
	l := New("t.c", "int @ x;")
	l.All()
	if len(l.Errors()) == 0 {
		t.Fatal("expected illegal character error")
	}
	if !strings.Contains(l.Errors()[0].Error(), "illegal character") {
		t.Errorf("got %v", l.Errors()[0])
	}
}

// Property: lexing the concatenation of token texts separated by spaces
// reproduces the token kinds (round-trip stability).
func TestRoundTripProperty(t *testing.T) {
	vocab := []string{"x", "y0", "_tmp", "42", "0x1f", "1.5", "'c'",
		`"s"`, "+", "-", "*", "/", "==", "<=", "<<=", "->", "++", "while",
		"if", "struct", "(", ")", "{", "}", ";", ",", "...", "&&", "||"}
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%32) + 1
		var parts []string
		for i := 0; i < count; i++ {
			parts = append(parts, vocab[rng.Intn(len(vocab))])
		}
		src := strings.Join(parts, " ")
		l1 := New("a.c", src)
		toks := l1.All()
		if len(l1.Errors()) != 0 {
			return false
		}
		if len(toks) != count+1 {
			return false
		}
		// Re-lex from spellings.
		var spell []string
		for _, tok := range toks[:len(toks)-1] {
			spell = append(spell, tok.Text)
		}
		l2 := New("b.c", strings.Join(spell, " "))
		toks2 := l2.All()
		if len(toks2) != len(toks) {
			return false
		}
		for i := range toks {
			if toks[i].Kind != toks2[i].Kind || toks[i].Text != toks2[i].Text {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the lexer terminates and never panics on arbitrary input.
func TestNoCrashProperty(t *testing.T) {
	f := func(src string) bool {
		l := New("fuzz.c", src)
		toks := l.All()
		return toks[len(toks)-1].Kind == token.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCommentsDoNotNest(t *testing.T) {
	got := kinds("a /* x /* y */ b")
	want := []token.Kind{token.Ident, token.Ident, token.EOF}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
}
