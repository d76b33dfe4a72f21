package cover

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"flashmc/internal/engine"
)

func sampleCov(fn string) *engine.Coverage {
	return &engine.Coverage{
		SM: "wait_for_db", Fn: fn,
		Rules:    map[string]uint64{"race": 2, "start#0": 1},
		States:   map[string]uint64{"start": 3},
		Patterns: map[string]uint64{"race/alt0": 2},
		Conds:    map[string]uint64{"cond#0": 1},
	}
}

func TestRecordAndSnapshot(t *testing.T) {
	s := NewSet()
	s.Record("buffer_race", sampleCov("h1"))
	s.Record("buffer_race", sampleCov("h2"))
	s.Record("buffer_race", &engine.Coverage{SM: "wait_for_db"}) // empty: dropped

	a := s.Snapshot()
	if a.Kind != Kind {
		t.Errorf("kind = %q", a.Kind)
	}
	c := a.Checkers["buffer_race"]
	if c == nil {
		t.Fatal("checker missing from snapshot")
	}
	if c.Runs != 2 || c.SM != "wait_for_db" {
		t.Errorf("runs/sm: %+v", c)
	}
	if c.Rules["race"] != 4 || c.States["start"] != 6 || c.Patterns["race/alt0"] != 4 || c.Conds["cond#0"] != 2 {
		t.Errorf("merged counts wrong: %+v", c)
	}

	// Snapshot is a deep copy.
	c.Rules["race"] = 99
	if s.Snapshot().Checkers["buffer_race"].Rules["race"] != 4 {
		t.Error("snapshot aliases internal state")
	}
}

func TestMergeOrderIndependence(t *testing.T) {
	// The same multiset of coverages must snapshot identically however
	// it is sharded across goroutines — the -j determinism property.
	covs := make([]*engine.Coverage, 40)
	rng := rand.New(rand.NewSource(7))
	for i := range covs {
		c := sampleCov("fn")
		c.Rules["race"] = uint64(rng.Intn(5) + 1)
		covs[i] = c
	}
	render := func(order []int, workers int) string {
		s := NewSet()
		var wg sync.WaitGroup
		per := (len(order) + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * per
			hi := lo + per
			if hi > len(order) {
				hi = len(order)
			}
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(part []int) {
				defer wg.Done()
				for _, i := range part {
					s.Record("buffer_race", covs[i])
				}
			}(order[lo:hi])
		}
		wg.Wait()
		var buf bytes.Buffer
		if err := s.Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	fwd := make([]int, len(covs))
	rev := make([]int, len(covs))
	for i := range covs {
		fwd[i] = i
		rev[i] = len(covs) - 1 - i
	}
	a := render(fwd, 1)
	b := render(rev, 8)
	if a != b {
		t.Errorf("snapshot depends on merge order:\n%s\nvs\n%s", a, b)
	}
}

// TestReplayedCoverageHasNoTiming: coverage replayed from a depot
// artifact is counts only, and so is everything the set renders from
// it — wall time is not reproducible and never enters coverage/v1.
func TestReplayedCoverageHasNoTiming(t *testing.T) {
	s := NewSet()
	s.Record("buffer_race", sampleCov("h1"))
	a := s.Snapshot()
	if c := a.Checkers["buffer_race"]; c == nil || c.Runs != 1 || c.Rules["race"] != 2 {
		t.Fatalf("replayed counts lost: %+v", c)
	}
	var buf bytes.Buffer
	if err := a.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, banned := range []string{"seconds", "p50", "p95", "p99", "slowest"} {
		if strings.Contains(buf.String(), banned) {
			t.Errorf("timing field %q in coverage artifact:\n%s", banned, buf.String())
		}
	}
}

func TestFired(t *testing.T) {
	s := NewSet()
	s.Record("buffer_race", sampleCov("h1"))
	got := s.Fired("buffer_race")
	if got["race"] != 2 || got["start#0"] != 1 {
		t.Errorf("fired: %v", got)
	}
	if s.Fired("nosuch") != nil {
		t.Error("unknown checker should return nil")
	}
	got["race"] = 99
	if s.Fired("buffer_race")["race"] != 2 {
		t.Error("Fired aliases internal state")
	}
}

func TestValidateRoundTrip(t *testing.T) {
	s := NewSet()
	s.Record("buffer_race", sampleCov("h1"))
	var buf bytes.Buffer
	if err := s.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := Validate(&buf)
	if err != nil {
		t.Fatalf("own artifact does not validate: %v", err)
	}
	if n != 1 {
		t.Errorf("checkers = %d", n)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]string{
		"not json":    "garbage",
		"wrong kind":  `{"kind":"coverage/v9","checkers":{}}`,
		"null entry":  `{"kind":"coverage/v1","checkers":{"c":null}}`,
		"zero count":  `{"kind":"coverage/v1","checkers":{"c":{"runs":1,"rules":{"r":0}}}}`,
		"empty key":   `{"kind":"coverage/v1","checkers":{"c":{"runs":1,"rules":{"":1}}}}`,
		"orphan alt":  `{"kind":"coverage/v1","checkers":{"c":{"runs":1,"patterns":{"r/alt0":1}}}}`,
		"bad pattern": `{"kind":"coverage/v1","checkers":{"c":{"runs":1,"rules":{"r":1},"patterns":{"r":1}}}}`,
		"extra field": `{"kind":"coverage/v1","checkers":{},"when":"now"}`,
	}
	for name, input := range cases {
		if _, err := Validate(strings.NewReader(input)); err == nil {
			t.Errorf("%s: Validate accepted %q", name, input)
		}
	}
}

func TestNilSetIsNoOp(t *testing.T) {
	var s *Set
	s.Record("c", sampleCov("h"))
	if s.Fired("c") != nil {
		t.Error("nil set leaked data")
	}
	if a := s.Snapshot(); a == nil || len(a.Checkers) != 0 {
		t.Errorf("nil snapshot: %+v", a)
	}
}
