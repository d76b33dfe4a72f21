package cpp_test

import (
	"testing"

	"flashmc/internal/cc/cpp"
	"flashmc/internal/flash"
	"flashmc/internal/flashgen"
)

// TestSplitLogicalLinesSeed1: on every file of the six seed-1
// protocols and the FLASH header, splitLogicalLines yields the Split
// version's lines.
func TestSplitLogicalLinesSeed1(t *testing.T) {
	protos := flashgen.Generate(flashgen.Options{Seed: 1}).Protocols
	if len(protos) != 6 {
		t.Fatalf("seed 1 generates %d protocols, want 6", len(protos))
	}
	for _, g := range protos {
		for name, src := range g.Files {
			cpp.CheckLogicalLines(t, g.Name+"/"+name, src)
		}
	}
	cpp.CheckLogicalLines(t, "flash-includes.h", flash.IncludesH)
}
