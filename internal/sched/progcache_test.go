package sched

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"flashmc/internal/core"
	"flashmc/internal/depot"
)

func TestSourceHash(t *testing.T) {
	files := map[string]string{"a.c": "int x;", "b.c": "int y;"}
	roots := []string{"a.c"}
	base := SourceHash(files, roots)
	if base != SourceHash(map[string]string{"b.c": "int y;", "a.c": "int x;"}, []string{"a.c"}) {
		t.Fatal("hash depends on map iteration order")
	}
	variants := []string{
		SourceHash(map[string]string{"a.c": "int x;", "b.c": "int z;"}, roots),
		SourceHash(map[string]string{"a.c": "int x;", "c.c": "int y;"}, roots),
		SourceHash(files, []string{"b.c"}),
		SourceHash(files, []string{"a.c", "b.c"}),
	}
	for i, v := range variants {
		if v == base {
			t.Errorf("variant %d collides with base", i)
		}
	}
	// Name/content boundaries must not be ambiguous.
	if SourceHash(map[string]string{"ab": "c"}, nil) == SourceHash(map[string]string{"a": "bc"}, nil) {
		t.Fatal("file name/content concatenation is ambiguous")
	}
}

// TestProgramCacheHitSkipsParse: a resident program is served without
// re-running the frontend, and its memoized fingerprints match a
// direct computation (warm Check must address the same depot keys as
// cold).
func TestProgramCacheHitSkipsParse(t *testing.T) {
	_, prog := loadProto(t, nil)
	var parses atomic.Int32
	parse := func() (*core.Program, error) {
		parses.Add(1)
		return prog, nil
	}
	c := &ProgramCache{}
	cp, hit, err := c.Load("h1", parse)
	if err != nil || hit {
		t.Fatalf("first load: hit=%v err=%v", hit, err)
	}
	cp2, hit, err := c.Load("h1", parse)
	if err != nil || !hit {
		t.Fatalf("second load: hit=%v err=%v", hit, err)
	}
	if parses.Load() != 1 {
		t.Fatalf("frontend ran %d times, want 1", parses.Load())
	}
	if cp2 != cp {
		t.Fatal("hit returned a different program instance")
	}
	fps := Fingerprints(cp2)
	if len(fps) != len(prog.Fns) {
		t.Fatalf("memoized %d fingerprints, want %d", len(fps), len(prog.Fns))
	}
	for i, fn := range prog.Fns {
		if fps[i] != FnFingerprint(fn) {
			t.Fatalf("fingerprint %d differs from direct computation", i)
		}
	}
	if ProgramFingerprintOf(cp2) != ProgramFingerprint(prog, fps) {
		t.Fatal("memoized program fingerprint differs from direct computation")
	}
}

// TestProgramCacheSingleFlight: concurrent misses on one hash share a
// single parse.
func TestProgramCacheSingleFlight(t *testing.T) {
	_, prog := loadProto(t, nil)
	var parses atomic.Int32
	gate := make(chan struct{})
	parse := func() (*core.Program, error) {
		parses.Add(1)
		<-gate
		return prog, nil
	}
	c := &ProgramCache{}
	var wg sync.WaitGroup
	cps := make([]*core.Program, 8)
	for i := range cps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cp, _, err := c.Load("h", parse)
			if err != nil {
				t.Errorf("load %d: %v", i, err)
			}
			cps[i] = cp
		}(i)
	}
	// Let followers queue behind the leader, then release the parse.
	for parses.Load() == 0 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if parses.Load() != 1 {
		t.Fatalf("frontend ran %d times under concurrent misses, want 1", parses.Load())
	}
	for i, cp := range cps {
		if cp == nil || cp != cps[0] {
			t.Fatalf("waiter %d got a different program", i)
		}
	}
}

// TestProgramCacheErrorNotCached: parse failures propagate and the
// next Load retries.
func TestProgramCacheErrorNotCached(t *testing.T) {
	_, prog := loadProto(t, nil)
	var parses atomic.Int32
	boom := errors.New("cpp exploded")
	c := &ProgramCache{}
	if _, _, err := c.Load("h", func() (*core.Program, error) {
		parses.Add(1)
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if _, hit, err := c.Load("h", func() (*core.Program, error) {
		parses.Add(1)
		return prog, nil
	}); err != nil || hit {
		t.Fatalf("retry after failure: hit=%v err=%v", hit, err)
	}
	if parses.Load() != 2 {
		t.Fatalf("parse ran %d times, want 2 (failure must not be cached)", parses.Load())
	}
}

// TestProgramCacheLRUCap: beyond Cap resident programs, the least
// recently used one is evicted and must re-parse.
func TestProgramCacheLRUCap(t *testing.T) {
	_, prog := loadProto(t, nil)
	parses := map[string]int{}
	load := func(c *ProgramCache, h string) bool {
		_, hit, err := c.Load(h, func() (*core.Program, error) {
			parses[h]++
			return prog, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return hit
	}
	c := &ProgramCache{Cap: 2}
	load(c, "a")
	load(c, "b")
	if !load(c, "a") { // a is now most recently used
		t.Fatal("a evicted below cap")
	}
	load(c, "c") // evicts b
	if c.Len() != 2 {
		t.Fatalf("resident %d programs, cap 2", c.Len())
	}
	if !load(c, "a") {
		t.Fatal("recently used a was evicted")
	}
	if load(c, "b") {
		t.Fatal("b survived past the cap")
	}
	if parses["b"] != 2 {
		t.Fatalf("b parsed %d times, want 2 (evicted then reloaded)", parses["b"])
	}
}

// TestProgramCacheIgnoresPlantedManifest: fingerprints come only from
// the AST. A programs/v1 parse manifest (an older release's format,
// planted here with sentinel fingerprints under the current and the
// previous frontend version) must neither be read nor change what a
// cached program's Check addresses or reports.
func TestProgramCacheIgnoresPlantedManifest(t *testing.T) {
	proto, prog := loadProto(t, nil)
	d, err := depot.Open(filepath.Join(t.TempDir(), "depot"))
	if err != nil {
		t.Fatal(err)
	}
	srcHash := SourceHash(proto.Files, proto.RootFiles)
	names := make([]string, len(prog.Fns))
	sentinel := make([]string, len(prog.Fns))
	for i, fn := range prog.Fns {
		names[i] = fn.Name
		sentinel[i] = fmt.Sprintf("sentinel-%d", i)
	}
	planted := map[string]any{"functions": names, "fingerprints": sentinel,
		"program_fingerprint": "sentinel-prog"}
	for _, version := range []string{FrontendVersion, "frontend/v1"} {
		key := depot.Key{Kind: "programs/v1", Source: srcHash, Version: version}
		if err := d.PutJSON(key, planted); err != nil {
			t.Fatal(err)
		}
	}

	an := &Analyzer{Depot: d}
	c := &ProgramCache{}
	cached, _, err := c.Load(srcHash, func() (*core.Program, error) {
		_, p := loadProto(t, nil)
		return p, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := an.Check(Request{Prog: cached, Spec: proto.Spec, Jobs: FlashJobs(proto.Spec)})
	if err != nil {
		t.Fatal(err)
	}
	for i, fn := range prog.Fns {
		if fp := Fingerprints(cached)[i]; fp != FnFingerprint(fn) {
			t.Fatalf("function %s fingerprint %q, want the AST's %q", fn.Name, fp, FnFingerprint(fn))
		}
	}
	if ProgramFingerprintOf(cached) != ProgramFingerprint(prog, Fingerprints(prog)) {
		t.Fatal("program fingerprint not derived from the AST")
	}

	want, err := (&Analyzer{}).Check(Request{Prog: prog, Spec: proto.Spec, Jobs: FlashJobs(proto.Spec)})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(render(want.Reports), render(got.Reports)) {
		t.Fatal("planted manifest changed the report stream")
	}
}

// TestCheckWithCachedFingerprints: a program served by the
// ProgramCache, its fingerprints already memoized, must address the
// same depot artifacts and render the same reports as a Check on a
// separately loaded copy that computes them itself — the invariant
// that makes the warm mcheckd path byte-identical to cold.
func TestCheckWithCachedFingerprints(t *testing.T) {
	proto, prog := loadProto(t, nil)
	spec := proto.Spec
	d, err := depot.Open("")
	if err != nil {
		t.Fatal(err)
	}
	an := &Analyzer{Depot: d}

	cold, err := an.Check(Request{Prog: prog, Spec: spec, Jobs: FlashJobs(spec)})
	if err != nil {
		t.Fatal(err)
	}

	c := &ProgramCache{}
	load := func() (*core.Program, error) {
		_, p := loadProto(t, nil)
		return p, nil
	}
	cached, _, err := c.Load("h", load)
	if err != nil {
		t.Fatal(err)
	}
	Fingerprints(cached)
	if again, hit, err := c.Load("h", load); err != nil || !hit || again != cached {
		t.Fatalf("second load: hit=%v err=%v same=%v", hit, err, again == cached)
	}
	warm, err := an.Check(Request{Prog: cached, Spec: spec, Jobs: FlashJobs(spec)})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(render(cold.Reports), render(warm.Reports)) {
		t.Fatal("cached fingerprints changed the report stream")
	}
	if warm.Stats.CacheMisses != 0 {
		t.Fatalf("warm run missed %d artifacts: fingerprints from the cache address different keys", warm.Stats.CacheMisses)
	}
}
