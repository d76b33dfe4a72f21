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

// writeFlat plants an artifact the way every depot version lays it
// out at its root: dir/<id[:2]>/<id>.json.
func writeFlat(t *testing.T, dir string, key Key, blob string) {
	t.Helper()
	id := key.ID()
	if err := os.MkdirAll(filepath.Join(dir, id[:2]), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, id[:2], id+".json"), []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
}

func writeManifest(t *testing.T, dir, body string) string {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	mf := filepath.Join(dir, "DEPOT")
	if err := os.WriteFile(mf, []byte(body+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return mf
}

// refused asserts that Open fails on dir with an error naming the
// manifest file and containing want.
func refused(t *testing.T, dir, mf, want string) {
	t.Helper()
	_, err := Open(dir)
	if err == nil {
		t.Fatalf("Open accepted %s", mf)
	}
	if !strings.Contains(err.Error(), mf) || !strings.Contains(err.Error(), want) {
		t.Fatalf("refusal does not name %s / %q: %v", mf, want, err)
	}
}

// TestShardRoutingAcrossProcesses simulates two processes sharing one
// depot directory: each sees the other's writes, artifacts land at
// dir/<id[:2]>/<id>.json, and a fresh depot writes no manifest.
func TestShardRoutingAcrossProcesses(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "depot")
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir) // second "process"
	if err != nil {
		t.Fatal(err)
	}
	keys := putN(t, a, 32)
	getAll(t, b, keys)
	other := Key{Kind: "reports", Source: "from-b"}
	if err := b.Put(other, []byte(`"b"`)); err != nil {
		t.Fatal(err)
	}
	if got, ok := a.Get(other); !ok || string(got) != `"b"` {
		t.Fatalf("first open misses the second's write: %q ok=%v", got, ok)
	}
	id := other.ID()
	if _, err := os.Stat(filepath.Join(dir, id[:2], id+".json")); err != nil {
		t.Fatalf("artifact not at the flat layout: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "DEPOT")); !os.IsNotExist(err) {
		t.Fatalf("fresh depot wrote a manifest (stat err %v)", err)
	}
}

// TestShardCountMismatchRefused: a depot an older version split over
// several shard roots cannot be read through one root, so Open
// refuses it by name instead of silently serving a fraction of it.
func TestShardCountMismatchRefused(t *testing.T) {
	v1 := filepath.Join(t.TempDir(), "depot")
	mf := writeManifest(t, v1, `{"version":1,"shards":4}`)
	writeFlat(t, filepath.Join(v1, "shard-002"), Key{Kind: "reports", Source: "s"}, `"x"`)
	refused(t, v1, mf, "4-shard")

	v2 := filepath.Join(t.TempDir(), "depot")
	mf = writeManifest(t, v2, fmt.Sprintf(`{"version":2,"shards":2,"paths":[%q,%q]}`,
		filepath.Join(v2, "shard-000"), filepath.Join(v2, "shard-001")))
	refused(t, v2, mf, "2-shard")
}

// TestOffRootManifestRefused: a one-shard manifest pinning its root
// somewhere other than the opened directory (another volume) is
// refused, naming both the file and the pinned path.
func TestOffRootManifestRefused(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "depot")
	elsewhere := filepath.Join(t.TempDir(), "vol-a")
	mf := writeManifest(t, dir, fmt.Sprintf(`{"version":2,"shards":1,"paths":[%q]}`, elsewhere))
	refused(t, dir, mf, elsewhere)
}

// TestCorruptManifestRefused: a manifest that does not decode, or
// whose path list disagrees with its shard count, cannot be trusted
// about anything.
func TestCorruptManifestRefused(t *testing.T) {
	for _, body := range []string{
		`{"version":2,"shards":2,"paths":["/only-one"]}`,
		`{"version":1,"shards":0}`,
		`{"version":2,"shar`,
	} {
		dir := t.TempDir()
		mf := writeManifest(t, dir, body)
		refused(t, dir, mf, "corrupt manifest")
	}
}

// TestLegacyLayoutIsSingleShard: a depot created before the manifest
// existed (flat id-prefix fan-out, no DEPOT file) opens, keeps its
// artifacts readable, and two opens share writes.
func TestLegacyLayoutIsSingleShard(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "depot")
	key := Key{Kind: "reports", Source: "legacy"}
	writeFlat(t, dir, key, `"old"`)

	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if b, ok := d.Get(key); !ok || string(b) != `"old"` {
		t.Fatalf("legacy artifact unreadable: %q ok=%v", b, ok)
	}
	d2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	getAll(t, d, putN(t, d2, 4))
}

// TestLegacyV1ManifestOpens: one-shard manifests at the depot root —
// count-only v1, and the v2 form older versions wrote for every fresh
// depot, reached by its recorded path or through a symlink — open and
// serve their artifacts, and are left in place.
func TestLegacyV1ManifestOpens(t *testing.T) {
	base := t.TempDir()
	link := filepath.Join(base, "link")
	dir := filepath.Join(base, "depot")
	v2 := fmt.Sprintf(`{"version":2,"shards":1,"paths":[%q]}`, dir)
	for _, tc := range []struct{ body, open string }{
		{`{"version":1,"shards":1}`, dir},
		{v2, dir},
		{v2, link},
	} {
		os.RemoveAll(dir)
		mf := writeManifest(t, dir, tc.body)
		if tc.open == link {
			if err := os.Symlink(dir, link); err != nil {
				t.Skipf("symlink: %v", err)
			}
		}
		key := Key{Kind: "reports", Source: "v1"}
		writeFlat(t, dir, key, `"kept"`)
		d, err := Open(tc.open)
		if err != nil {
			t.Fatalf("%s via %s refused: %v", tc.body, tc.open, err)
		}
		if b, ok := d.Get(key); !ok || string(b) != `"kept"` {
			t.Fatalf("%s: artifact unreadable: %q ok=%v", tc.body, b, ok)
		}
		getAll(t, d, putN(t, d, 4))
		if raw, err := os.ReadFile(mf); err != nil || string(raw) != tc.body+"\n" {
			t.Fatalf("manifest rewritten: %q err=%v", raw, err)
		}
	}
}

// TestPingFailsWhenRootGone: readiness follows the root directory.
func TestPingFailsWhenRootGone(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "depot")
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Ping(); err != nil {
		t.Fatalf("Ping on a live depot: %v", err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := d.Ping(); err == nil {
		t.Fatal("Ping succeeded with the depot root removed")
	}
}

// TestPutPressureGC: with a policy armed, the Put crossing the byte
// threshold (maxBytes/8) sweeps inline — and an idle depot (no further
// Puts) is never swept again.
func TestPutPressureGC(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d.SetGCPolicy(0, 16)

	before := mGCPressure.Value()
	putN(t, d, 32) // ~10 bytes each: many threshold crossings
	sweeps := mGCPressure.Value() - before
	if sweeps < 1 {
		t.Fatal("no pressure sweep fired")
	}
	if got := d.Stats().Bytes; got > 64 {
		t.Fatalf("depot holds %d bytes after pressure sweeps; budget is 16", got)
	}

	// Disarm: writes stop sweeping.
	d.SetGCPolicy(0, 0)
	before = mGCPressure.Value()
	putN(t, d, 32)
	if got := mGCPressure.Value() - before; got != 0 {
		t.Fatalf("disarmed policy swept %v times", got)
	}
}

// TestConcurrentFreshOpen: N goroutines racing Open on the same fresh
// directory must all succeed (an mcheck and an mcheckd sharing one
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
