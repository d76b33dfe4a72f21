package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flashmc/internal/core"
	"flashmc/internal/cover"
	"flashmc/internal/flashgen"
	"flashmc/internal/paper"
	"flashmc/internal/sched"
)

func loadBenchCorpus(t *testing.T, seed int64) *paper.Corpus {
	t.Helper()
	c, err := paper.LoadCorpus(flashgen.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// Acceptance: two -json runs with the same seed are byte-identical —
// the payload carries no timestamps and no wall times.
func TestJSONDeterministic(t *testing.T) {
	render := func() []byte {
		c := loadBenchCorpus(t, 1)
		m := c.Coverage()
		data, err := renderJSON(c, m, 1, 8)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("two -json runs with seed 1 differ:\n%s\nvs\n%s", a, b)
	}
}

// The -json payload is versioned and carries a valid coverage artifact.
func TestJSONSchema(t *testing.T) {
	c := loadBenchCorpus(t, 1)
	m := c.Coverage()
	data, err := renderJSON(c, m, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	var payload struct {
		BenchSchema int             `json:"bench_schema"`
		Coverage    json.RawMessage `json:"coverage"`
	}
	if err := json.Unmarshal(data, &payload); err != nil {
		t.Fatal(err)
	}
	if payload.BenchSchema != benchSchema {
		t.Errorf("bench_schema = %d, want %d", payload.BenchSchema, benchSchema)
	}
	if n, err := cover.Validate(bytes.NewReader(payload.Coverage)); err != nil {
		t.Errorf("embedded coverage artifact invalid: %v", err)
	} else if n == 0 {
		t.Error("embedded coverage artifact has no checkers")
	}
	if strings.Contains(string(data), "wall_seconds") {
		t.Error("-json payload contains wall time; it must stay deterministic")
	}
}

// The gate accepts its own baseline and flags >25% regressions.
func TestGate(t *testing.T) {
	base := benchResult{BenchSchema: benchSchema, WallSeconds: 2.0, ConfigsExplored: 1000}
	if bad := gate(base, base); len(bad) != 0 {
		t.Errorf("baseline vs itself flagged: %v", bad)
	}
	ok := base
	ok.WallSeconds = 2.4 // +20%
	if bad := gate(base, ok); len(bad) != 0 {
		t.Errorf("+20%% flagged: %v", bad)
	}
	slow := base
	slow.WallSeconds = 2.6 // +30%
	if bad := gate(base, slow); len(bad) != 1 || !strings.Contains(bad[0], "wall_seconds") {
		t.Errorf("+30%% wall time not flagged: %v", bad)
	}
	blown := base
	blown.ConfigsExplored = 1300
	if bad := gate(base, blown); len(bad) != 1 || !strings.Contains(bad[0], "configs_explored") {
		t.Errorf("+30%% configs not flagged: %v", bad)
	}
	vers := base
	vers.BenchSchema = benchSchema + 1
	if bad := gate(base, vers); len(bad) != 1 || !strings.Contains(bad[0], "bench_schema") {
		t.Errorf("schema change not flagged: %v", bad)
	}
}

// BenchmarkWarmFrontend measures what mcheckd's program cache saves:
// a cold frontend pass over one protocol (cpp, lex, parse, typecheck,
// CFG, fingerprint walk) versus a ProgramCache hit on the same tree,
// which skips all of it and returns the resident parse.
func BenchmarkWarmFrontend(b *testing.B) {
	gen := flashgen.Generate(flashgen.Options{Seed: 1})
	p := gen.Protocol("bitvector")
	if p == nil {
		b.Fatal("protocol bitvector not generated")
	}
	parse := func() (*core.Program, error) {
		return core.Load(p.Name, p.Source(), p.RootFiles)
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			prog, err := parse()
			if err != nil {
				b.Fatal(err)
			}
			sched.ProgramFingerprint(prog, sched.Fingerprints(prog))
		}
	})
	b.Run("warm", func(b *testing.B) {
		cache := &sched.ProgramCache{}
		hash := sched.SourceHash(p.Files, p.RootFiles)
		if _, _, err := cache.Load(hash, parse); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, hit, err := cache.Load(hash, parse); err != nil || !hit {
				b.Fatalf("hit=%v err=%v", hit, err)
			}
		}
	})
}

// The measured bench result counts real engine work.
func TestMeasure(t *testing.T) {
	c := loadBenchCorpus(t, 1)
	m, bench := measure(c, 1)
	if bench.BenchSchema != benchSchema {
		t.Errorf("bench_schema = %d", bench.BenchSchema)
	}
	if bench.Protocols != len(m.Protocols) || bench.Checkers != len(m.Checkers) {
		t.Errorf("shape mismatch: %+v vs %d protocols, %d checkers", bench, len(m.Protocols), len(m.Checkers))
	}
	if bench.WallSeconds <= 0 {
		t.Errorf("wall_seconds = %g", bench.WallSeconds)
	}
	// The corpus's engine work is deterministic at a seed: the exact
	// counts catch a change to what the engine explores, which the
	// ±25% timing gate in ci.sh cannot.
	if bench.ConfigsExplored != 466160 || bench.RulesFired != 4291 {
		t.Errorf("engine work at seed 1: configs_explored = %g, rules_fired = %g; want 466160, 4291",
			bench.ConfigsExplored, bench.RulesFired)
	}
}

// -append keeps earlier trajectory entries byte-for-byte, including
// fields this paperbench no longer records (BENCH_PR10.json's fused
// comparison).
func TestAppendKeepsHistory(t *testing.T) {
	orig, err := os.ReadFile("../../BENCH_PR10.json")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "traj.json")
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	bench := benchResult{BenchSchema: benchSchema, Seed: 1, WallSeconds: 1.5, ConfigsExplored: 466160}
	n, err := appendTrajectory(path, trajectoryEntry{benchResult: bench, Unix: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var before, after []json.RawMessage
	if err := json.Unmarshal(orig, &before); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got, &after); err != nil {
		t.Fatalf("appended trajectory is not a JSON array: %v", err)
	}
	if n != len(before)+1 || len(after) != n {
		t.Fatalf("entries: before %d, after %d, reported %d", len(before), len(after), n)
	}
	if !bytes.Equal(after[0], before[0]) {
		t.Errorf("first entry rewritten:\n%s\nwant:\n%s", after[0], before[0])
	}
	if !bytes.Contains(after[0], []byte(`"fused_visit_ratio"`)) {
		t.Error("first entry lost its fused comparison")
	}
	var last trajectoryEntry
	if err := json.Unmarshal(after[n-1], &last); err != nil {
		t.Fatal(err)
	}
	if last.Unix != 1 || last.ConfigsExplored != bench.ConfigsExplored {
		t.Errorf("appended entry = %+v", last)
	}
	// Appending to a file this function wrote is stable too: the two
	// prior entries come back unchanged.
	if _, err := appendTrajectory(path, trajectoryEntry{benchResult: bench, Unix: 2}); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(again, got[:len(got)-len("\n]\n")]) {
		t.Error("second append rewrote earlier entries")
	}
}
