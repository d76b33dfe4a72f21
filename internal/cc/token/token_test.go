package token

import "testing"

func TestLookup(t *testing.T) {
	if Lookup("while") != KwWhile {
		t.Error("while")
	}
	if Lookup("whileX") != Ident {
		t.Error("whileX")
	}
	if Lookup("") != Ident {
		t.Error("empty")
	}
}

func TestKeywordRange(t *testing.T) {
	for k := KwAuto; k <= KwWhile; k++ {
		if Lookup(k.String()) != k {
			t.Errorf("Lookup(%q) != %v", k.String(), k)
		}
	}
	for spelling, k := range keywords {
		if k < KwAuto || k > KwWhile {
			t.Errorf("keyword %q maps to %v, outside KwAuto..KwWhile", spelling, k)
		}
	}
}

func TestIsAssign(t *testing.T) {
	for k := Assign; k <= ShrAssign; k++ {
		if !k.IsAssign() {
			t.Errorf("%v not assign", k)
		}
	}
	if Eq.IsAssign() || Add.IsAssign() {
		t.Error("non-assign ops report as assign")
	}
}

func TestIsTypeStart(t *testing.T) {
	for _, k := range []Kind{KwVoid, KwChar, KwInt, KwUnsigned, KwStruct, KwEnum, KwConst} {
		if !k.IsTypeStart() {
			t.Errorf("%v not type start", k)
		}
	}
	for _, k := range []Kind{KwReturn, Ident, KwIf, KwTypedef} {
		if k.IsTypeStart() {
			t.Errorf("%v is type start", k)
		}
	}
}

func TestPosString(t *testing.T) {
	p := Pos{File: "f.c", Line: 3, Col: 7}
	if p.String() != "f.c:3:7" {
		t.Errorf("%q", p.String())
	}
	if (Pos{}).IsValid() {
		t.Error("zero pos valid")
	}
	if (Pos{}).String() != "-" {
		t.Errorf("%q", (Pos{}).String())
	}
	noFile := Pos{Line: 2, Col: 1}
	if noFile.String() != "2:1" {
		t.Errorf("%q", noFile.String())
	}
}

func TestKindStrings(t *testing.T) {
	if Arrow.String() != "->" || Ellipsis.String() != "..." || ShlAssign.String() != "<<=" {
		t.Error("operator spellings")
	}
	if Ident.String() != "identifier" {
		t.Error("ident name")
	}
	if Kind(9999).String() == "" {
		t.Error("out-of-range kind")
	}
}

func TestTokenString(t *testing.T) {
	tok := Token{Kind: Ident, Text: "foo"}
	if tok.String() != `identifier "foo"` {
		t.Errorf("%q", tok.String())
	}
	op := Token{Kind: Add, Text: "+"}
	if op.String() != "+" {
		t.Errorf("%q", op.String())
	}
}
