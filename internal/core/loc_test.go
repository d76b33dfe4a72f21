package core

import (
	"strings"
	"testing"

	"flashmc/internal/flashgen"
)

// splitLOC is countLOC as it was written with strings.Split, kept as
// the reference the allocation-free walk must agree with.
func splitLOC(src string) int {
	n := 0
	for _, ln := range strings.Split(src, "\n") {
		if strings.TrimSpace(ln) != "" {
			n++
		}
	}
	return n
}

// TestCountLOCMatchesSplit: countLOC counts what the Split version
// counts on every line-ending and blank-line shape.
func TestCountLOCMatchesSplit(t *testing.T) {
	for _, src := range []string{
		"",
		"\n",
		"\n\n\n",
		"int x;",
		"int x;\n",
		"int x;\nint y;",
		"int x;\n\nint y;\n\n",
		"int x;\r\nint y;\r\n",
		"\r\n\r\nint x;\r\n\r\n",
		"int x;\r",
		"  \t \nint x;\n \t\n",
		"\f\n\v\n\f\v \t\r\n",
		"int x;\f\n\vint y;\n",
		" \n \nint x;\n",
		"a\nb\nc",
	} {
		if got, want := countLOC(src), splitLOC(src); got != want {
			t.Errorf("countLOC(%q) = %d, Split version %d", src, got, want)
		}
	}
}

// TestSourceLOCSeed1 pins every seed-1 protocol's SourceLOC: the
// "measured" row of paperbench's Table 1.
func TestSourceLOCSeed1(t *testing.T) {
	want := map[string]int{
		"bitvector": 10381, "dyn_ptr": 18433, "sci": 11469,
		"coma": 17024, "rac": 14391, "common": 8784,
	}
	protos := flashgen.Generate(flashgen.Options{Seed: 1}).Protocols
	if len(protos) != len(want) {
		t.Fatalf("seed 1 generates %d protocols, want %d", len(protos), len(want))
	}
	for _, g := range protos {
		p, err := Load(g.Name, g.Source(), g.RootFiles)
		if err != nil {
			t.Fatal(err)
		}
		if p.SourceLOC != want[g.Name] {
			t.Errorf("%s: SourceLOC %d, want %d", g.Name, p.SourceLOC, want[g.Name])
		}
	}
}
