package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"flashmc/internal/cc/cpp"
	"flashmc/internal/cc/lexer"
	"flashmc/internal/cc/token"
	"flashmc/internal/flashgen"
)

// frontendTokens runs root file rf through cpp and the lexer as Load
// does and returns the token stream Load hands the parser.
func frontendTokens(t *testing.T, src cpp.Source, rf string) []token.Token {
	t.Helper()
	pp := cpp.New(src)
	text := pp.Process(rf)
	if errs := pp.Errors(); len(errs) > 0 {
		t.Fatalf("%s: cpp: %v", rf, errs[0])
	}
	lx := lexer.New(rf, text)
	toks := lx.All()
	if errs := lx.Errors(); len(errs) > 0 {
		t.Fatalf("%s: lexer: %v", rf, errs[0])
	}
	return toks
}

// tokenStreamDigests pins the token stream Load's frontend hands the
// parser for every root file of each seed-1 flashgen protocol: every
// token's file, line, column, kind and text, EOF included. The digests
// were recorded while cpp still wrote a line marker before every output
// line, so cpp must hand positions to the lexer exactly as it did then.
var tokenStreamDigests = map[string]struct {
	tokens int
	sha256 string
}{
	"bitvector": {67606, "8c69438959b19ea92d921b15712fe12b350ea95f4d58dad70e77e10095b432c8"},
	"dyn_ptr":   {120235, "806fdd6e9e6ff8862c53dccfc8727772ad56603bf67f8c2b2c1ca87961f1475d"},
	"sci":       {72982, "1aff0d02e596728c0d8bab414bc5c6f49838c06c941fe9fec6099d5606c34a9f"},
	"coma":      {111688, "1a9193d47796482942115cd55db9464b4ef278e160d0416fbfdec6198dec74ca"},
	"rac":       {93805, "4ef70002187322471b74b557910a7f0e944bda9f5045f69dba903c211eecb896"},
	"common":    {58469, "157940c8d337059f50c536f73a2a05b5f410b9d785ca98970d2645fa2b7e0bde"},
}

func TestTokenStreamPinned(t *testing.T) {
	gen := flashgen.Generate(flashgen.Options{Seed: 1})
	if len(gen.Protocols) != len(tokenStreamDigests) {
		t.Errorf("%d protocols, %d pinned digests", len(gen.Protocols), len(tokenStreamDigests))
	}
	for _, proto := range gen.Protocols {
		src := proto.Source()
		h := sha256.New()
		n := 0
		for _, rf := range proto.RootFiles {
			for _, tok := range frontendTokens(t, src, rf) {
				fmt.Fprintf(h, "%s\x00%d\x00%d\x00%d\x00%s\n",
					tok.Pos.File, tok.Pos.Line, tok.Pos.Col, tok.Kind, tok.Text)
				n++
			}
		}
		want, ok := tokenStreamDigests[proto.Name]
		if !ok {
			t.Errorf("%s: no pinned digest", proto.Name)
			continue
		}
		if got := hex.EncodeToString(h.Sum(nil)); n != want.tokens || got != want.sha256 {
			t.Errorf("%s: %d tokens with digest %s, want %d with %s",
				proto.Name, n, got, want.tokens, want.sha256)
		}
	}
}

// A backslash continuation must join lines whether they end in LF or
// CRLF.
func TestLoadCRLFContinuation(t *testing.T) {
	lf := "#define ADD(a, b) \\\n  ((a) + (b))\nint f(int x) {\n  return ADD(x, 1);\n}\n"
	crlf := strings.ReplaceAll(lf, "\n", "\r\n")
	type tok struct {
		kind token.Kind
		text string
		line int
	}
	load := func(text string) ([]string, []tok) {
		src := cpp.MapSource{"m.c": text}
		p, err := Load("m", src, []string{"m.c"})
		if err != nil {
			t.Fatal(err)
		}
		var toks []tok
		for _, tk := range frontendTokens(t, src, "m.c") {
			toks = append(toks, tok{tk.Kind, tk.Text, tk.Pos.Line})
		}
		return p.FnNames(), toks
	}
	lfFns, lfToks := load(lf)
	crlfFns, crlfToks := load(crlf)
	if !reflect.DeepEqual(lfFns, []string{"f"}) || !reflect.DeepEqual(crlfFns, lfFns) {
		t.Errorf("functions: LF %v, CRLF %v", lfFns, crlfFns)
	}
	if !reflect.DeepEqual(crlfToks, lfToks) {
		t.Errorf("tokens:\nLF   %v\nCRLF %v", lfToks, crlfToks)
	}
}
