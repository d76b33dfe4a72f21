package engine

import (
	"fmt"
	"testing"
)

// TestConfigSetPastSmallSet drives a configSet across the smallSet
// boundary, where add switches from scanning keys to the idx map, and
// back through reset. Real runs never grow a set that far, so this is
// the only coverage of the map path.
func TestConfigSetPastSmallSet(t *testing.T) {
	const n = 3 * smallSet
	var s configSet
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			if !s.add(config{state: fmt.Sprint("s", i)}) {
				t.Fatalf("round %d: add s%d: reported a duplicate", round, i)
			}
			// Every member so far, old and new, is a duplicate now.
			for j := 0; j <= i; j++ {
				if s.add(config{state: fmt.Sprint("s", j)}) {
					t.Fatalf("round %d: at size %d, re-adding s%d was accepted", round, i+1, j)
				}
			}
		}
		got := s.configs()
		if len(got) != n {
			t.Fatalf("round %d: %d members, want %d", round, len(got), n)
		}
		for i, k := range got {
			if want := fmt.Sprint("s", i); k.state != want || k.key != want {
				t.Fatalf("round %d: member %d is %q (key %q), want %q in insertion order", round, i, k.state, k.key, want)
			}
		}
		s.reset()
		if len(s.configs()) != 0 {
			t.Fatalf("round %d: reset left %d members", round, len(s.configs()))
		}
	}
}
