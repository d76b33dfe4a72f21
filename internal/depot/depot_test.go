package depot

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func backends(t *testing.T) map[string]*Depot {
	t.Helper()
	disk, err := Open(filepath.Join(t.TempDir(), "depot"))
	if err != nil {
		t.Fatal(err)
	}
	mem, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Depot{"disk": disk, "mem": mem}
}

func TestRoundTrip(t *testing.T) {
	for name, d := range backends(t) {
		key := Key{Kind: "reports", Source: "abc", Checker: "msglen", Version: "1.1.0", Options: "opt"}
		hits0, misses0, puts0 := mHits.Value(), mMisses.Value(), mPuts.Value()
		if _, ok := d.Get(key); ok {
			t.Fatalf("%s: hit on empty depot", name)
		}
		if err := d.Put(key, []byte(`["r1"]`)); err != nil {
			t.Fatal(err)
		}
		b, ok := d.Get(key)
		if !ok || string(b) != `["r1"]` {
			t.Fatalf("%s: got %q ok=%v", name, b, ok)
		}
		if st := d.Stats(); st.Entries != 1 || st.Bytes != int64(len(`["r1"]`)) {
			t.Fatalf("%s: stats %+v", name, st)
		}
		// Traffic is counted once, process-wide.
		if h, m, p := mHits.Value()-hits0, mMisses.Value()-misses0, mPuts.Value()-puts0; h != 1 || m != 1 || p != 1 {
			t.Fatalf("%s: depot_hits/misses/puts_total advanced by %v/%v/%v, want 1/1/1", name, h, m, p)
		}
	}
}

// TestKeyFields checks that every key field participates in the
// address — in particular that a checker version bump is a cache miss
// (the satellite requirement for checkers.Version()).
func TestKeyFields(t *testing.T) {
	base := Key{Kind: "reports", Source: "s", Checker: "c", Version: "1.0.0", Options: "o"}
	variants := []Key{
		{Kind: "summary", Source: "s", Checker: "c", Version: "1.0.0", Options: "o"},
		{Kind: "reports", Source: "s2", Checker: "c", Version: "1.0.0", Options: "o"},
		{Kind: "reports", Source: "s", Checker: "c2", Version: "1.0.0", Options: "o"},
		{Kind: "reports", Source: "s", Checker: "c", Version: "1.1.0", Options: "o"},
		{Kind: "reports", Source: "s", Checker: "c", Version: "1.0.0", Options: "o2"},
	}
	for _, d := range backends(t) {
		if err := d.Put(base, []byte("x")); err != nil {
			t.Fatal(err)
		}
		for _, v := range variants {
			if v.ID() == base.ID() {
				t.Fatalf("key %+v collides with base", v)
			}
			if _, ok := d.Get(v); ok {
				t.Fatalf("key %+v unexpectedly hit", v)
			}
		}
	}
	// Field boundaries must not be ambiguous under concatenation.
	a := Key{Kind: "ab", Source: "c"}
	b := Key{Kind: "a", Source: "bc"}
	if a.ID() == b.ID() {
		t.Fatal("field concatenation is ambiguous")
	}
}

// TestKeyIDGolden pins ID() of fixed keys at the addresses earlier
// releases computed, so a depot they populated still hits. The last
// key outgrows ID's stack buffer.
func TestKeyIDGolden(t *testing.T) {
	for _, c := range []struct {
		key  Key
		want string
	}{
		{Key{}, "8855508aade16ec573d21e6a485dfd0a7624085c1a14b5ecdd6485de0c6839a4"},
		{Key{Kind: "reports/v3", Source: "9f2c7d4e", Checker: "buffer_race", Version: "1.1.0", Options: "spec:flash"},
			"f9e83939cc440c5015ea341889a006259d9b70d0cb99119a254cc0594e68444d"},
		{Key{Kind: "summary", Source: strings.Repeat("ab", 400), Options: strings.Repeat("o", 300)},
			"57e7651636ed6531da1c908622b0e4e7e7d4280601c64c2e297a30d698051aaa"},
	} {
		if got := c.key.ID(); got != c.want {
			t.Errorf("ID(%.40v) = %s, want %s", c.key, got, c.want)
		}
	}
	k := Key{Kind: "reports/v3", Source: strings.Repeat("f", 64), Checker: "lanes", Version: "1.1.0", Options: strings.Repeat("0", 64)}
	if n := testing.AllocsPerRun(100, func() { _ = k.ID() }); n != 1 {
		t.Errorf("ID allocates %v times, want 1 (the result)", n)
	}
}

// TestPutCopiesBlob: Put's caller may reuse its slice, so mutating it
// after Put must not change the stored artifact.
func TestPutCopiesBlob(t *testing.T) {
	for name, d := range backends(t) {
		key := Key{Kind: "reports", Source: "reuse"}
		blob := []byte(`["r1"]`)
		if err := d.Put(key, blob); err != nil {
			t.Fatal(err)
		}
		copy(blob, `["XX"]`)
		if b, ok := d.Get(key); !ok || string(b) != `["r1"]` {
			t.Fatalf("%s: got %q ok=%v after the caller reused its slice", name, b, ok)
		}
	}
}

func TestJSONHelpers(t *testing.T) {
	for name, d := range backends(t) {
		key := Key{Kind: "reports", Source: "s"}
		want := []string{"a", "b"}
		if err := d.PutJSON(key, want); err != nil {
			t.Fatal(err)
		}
		var got []string
		if !d.GetJSON(key, &got) {
			t.Fatalf("%s: miss", name)
		}
		if len(got) != 2 || got[0] != "a" || got[1] != "b" {
			t.Fatalf("%s: got %v", name, got)
		}
	}
}

// TestCorruptArtifactIsMiss: a truncated on-disk artifact must read
// as a miss, not an error, so the caller recomputes it.
func TestCorruptArtifactIsMiss(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "depot")
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key{Kind: "reports", Source: "s"}
	if err := d.PutJSON(key, []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key.ID()[:2], key.ID()+".json")
	if err := os.WriteFile(path, []byte("[1,"), 0o644); err != nil {
		t.Fatal(err)
	}
	var got []int
	if d.GetJSON(key, &got) {
		t.Fatal("corrupt artifact decoded")
	}
}

func TestConcurrentPutGet(t *testing.T) {
	for name, d := range backends(t) {
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				key := Key{Kind: "reports", Source: fmt.Sprint(i % 4)}
				blob := []byte(fmt.Sprintf(`"blob %d"`, i%4))
				for j := 0; j < 50; j++ {
					if err := d.Put(key, blob); err != nil {
						t.Error(err)
						return
					}
					if b, ok := d.Get(key); ok && string(b) != string(blob) {
						t.Errorf("%s: torn read: %q", name, b)
						return
					}
				}
			}(i)
		}
		wg.Wait()
	}
}

func TestGC(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "depot")
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	old := Key{Kind: "reports", Source: "old"}
	fresh := Key{Kind: "reports", Source: "fresh"}
	for _, k := range []Key{old, fresh} {
		if err := d.Put(k, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// Age one artifact past the cutoff.
	stale := time.Now().Add(-2 * time.Hour)
	if err := d.backdate(old, stale); err != nil {
		t.Fatal(err)
	}
	removed, err := d.GC(time.Hour, 0)
	if err != nil || removed != 1 {
		t.Fatalf("GC removed %d, err %v", removed, err)
	}
	if _, ok := d.Get(old); ok {
		t.Fatal("stale artifact survived GC")
	}
	if _, ok := d.Get(fresh); !ok {
		t.Fatal("fresh artifact removed by GC")
	}
	if removed, err = d.GC(0, 0); err != nil || removed != 1 {
		t.Fatalf("GC(0) removed %d, err %v", removed, err)
	}
	if d.Stats().Entries != 0 {
		t.Fatal("GC(0) left entries")
	}
}
