package depot

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func putN(t *testing.T, d *Depot, n int) []Key {
	t.Helper()
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = Key{Kind: "reports/v3", Source: fmt.Sprintf("src-%03d", i),
			Checker: "c", Version: "v1", Options: "o"}
		if err := d.Put(keys[i], []byte(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

func getAll(t *testing.T, d *Depot, keys []Key) {
	t.Helper()
	for i, k := range keys {
		if _, ok := d.Get(k); !ok {
			t.Fatalf("key %d lost", i)
		}
	}
}

// TestOpenShardedAtSpansVolumes: explicit shard roots may live outside
// the depot directory (separate volumes); the manifest pins them and
// any later open — with or without the paths respelled — adopts the
// identical layout.
func TestOpenShardedAtSpansVolumes(t *testing.T) {
	dir := t.TempDir()
	paths := []string{filepath.Join(t.TempDir(), "vol-a"), filepath.Join(t.TempDir(), "vol-b")}

	d, err := OpenShardedAt(dir, paths)
	if err != nil {
		t.Fatal(err)
	}
	keys := putN(t, d, 16)
	getAll(t, d, keys)

	// Both roots must actually hold artifacts — otherwise the "spans
	// volumes" claim is hollow.
	for _, p := range paths {
		ents, err := os.ReadDir(p)
		if err != nil || len(ents) == 0 {
			t.Fatalf("shard root %s is empty (err=%v)", p, err)
		}
	}

	// Reopen with the same pinned paths.
	d2, err := OpenShardedAt(dir, paths)
	if err != nil {
		t.Fatal(err)
	}
	getAll(t, d2, keys)

	// Reopen with no paths at all: the v2 manifest supplies them.
	d3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	getAll(t, d3, keys)

	// A mismatched path is refused, naming the offender.
	bad := []string{paths[0], filepath.Join(t.TempDir(), "vol-elsewhere")}
	if _, err := OpenShardedAt(dir, bad); err == nil {
		t.Fatal("mismatched shard path accepted")
	} else if !strings.Contains(err.Error(), paths[1]) || !strings.Contains(err.Error(), "pins shard") {
		t.Fatalf("refusal does not name the pinned path: %v", err)
	}
}

func TestOpenShardedAtRejectsRelativePaths(t *testing.T) {
	if _, err := OpenShardedAt(t.TempDir(), []string{"relative/shard"}); err == nil {
		t.Fatal("relative shard path accepted")
	}
	if _, err := OpenShardedAt(t.TempDir(), nil); err == nil {
		t.Fatal("empty shard path list accepted")
	}
}

// TestLegacyV1ManifestOpens: count-only manifests written before paths
// existed keep opening with the default in-dir layout.
func TestLegacyV1ManifestOpens(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "DEPOT"), []byte(`{"version":1,"shards":2}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenSharded(dir, 2)
	if err != nil {
		t.Fatalf("v1 manifest refused: %v", err)
	}
	keys := putN(t, d, 8)

	// shards=0 adopts the v1 layout too.
	d2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	getAll(t, d2, keys)
	if got := len(d2.shards); got != 2 {
		t.Fatalf("adopted %d shards, want 2", got)
	}

	// The in-dir roots v1 implies.
	if _, err := os.Stat(filepath.Join(dir, "shard-001")); err != nil {
		t.Fatalf("v1 default shard root missing: %v", err)
	}
}

// TestCorruptManifestRefused: a manifest whose path list disagrees
// with its shard count cannot be trusted about anything.
func TestCorruptManifestRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "DEPOT"), []byte(`{"version":2,"shards":2,"paths":["/only-one"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("corrupt manifest accepted")
	} else if !strings.Contains(err.Error(), "corrupt manifest") {
		t.Fatalf("err = %v", err)
	}
}

// TestPutPressureGC: with a policy armed, the Put crossing the byte
// threshold sweeps inline — and an idle depot (no further Puts) is
// never swept again.
func TestPutPressureGC(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Evict down to ~one artifact every 64 bytes written.
	d.SetGCPolicy(0, 16, 64)

	before := mGCPressure.Value()
	putN(t, d, 32) // ~10 bytes each: several threshold crossings
	sweeps := mGCPressure.Value() - before
	if sweeps < 1 {
		t.Fatal("no pressure sweep fired")
	}
	if got := d.Stats().Bytes; got > 64 {
		t.Fatalf("depot holds %d bytes after pressure sweeps; budget is 16", got)
	}

	// Disarm: writes stop sweeping.
	d.SetGCPolicy(0, 16, 0)
	before = mGCPressure.Value()
	putN(t, d, 32)
	if got := mGCPressure.Value() - before; got != 0 {
		t.Fatalf("disarmed policy swept %v times", got)
	}
}

// TestConcurrentFreshOpen: N goroutines racing Open on the same fresh
// directory must all succeed — a reader must never observe a
// truncated manifest mid-write (an mcheck and an mcheckd sharing one
// new depot volume start exactly this way).
func TestConcurrentFreshOpen(t *testing.T) {
	for round := 0; round < 20; round++ {
		dir := filepath.Join(t.TempDir(), "depot")
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			go func() {
				_, err := Open(dir)
				errs <- err
			}()
		}
		for g := 0; g < 8; g++ {
			if err := <-errs; err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
}
