package depot

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestGCUnderConcurrentReaders hammers a disk depot with readers and
// writers while GC sweeps run concurrently. A read may miss (GC won)
// or hit (reader won), but a hit must never return a torn or foreign
// blob, and nothing may panic.
func TestGCUnderConcurrentReaders(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	keys := make([]Key, 32)
	blobs := make([][]byte, len(keys))
	for i := range keys {
		keys[i] = Key{Kind: "reports/v2", Source: fmt.Sprintf("src%d", i), Checker: "c"}
		blobs[i] = bytes.Repeat([]byte{byte(i)}, 4096+i)
		if err := d.Put(keys[i], blobs[i]); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// GC sweeps: maxAge <= 0 removes everything present at sweep time.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := d.GC(0, 0); err != nil {
				t.Errorf("GC: %v", err)
				return
			}
		}
	}()

	// Writers keep re-inserting the artifacts GC removes.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range keys {
					if err := d.Put(keys[i], blobs[i]); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				}
			}
		}()
	}

	// Readers: every hit must be byte-exact.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range keys {
					if b, ok := d.Get(keys[i]); ok && !bytes.Equal(b, blobs[i]) {
						t.Errorf("key %d: torn read: got %d bytes, want %d", i, len(b), len(blobs[i]))
						return
					}
				}
			}
		}()
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestGCSizeBudgetEvictsLRU: over a byte budget, GC must evict
// least-recently-used artifacts first, on disk and in memory alike.
func TestGCSizeBudgetEvictsLRU(t *testing.T) {
	for name, d := range backends(t) {
		keys := make([]Key, 4)
		for i := range keys {
			keys[i] = Key{Kind: "reports", Source: fmt.Sprintf("lru%d", i)}
			if err := d.Put(keys[i], bytes.Repeat([]byte{'x'}, 1000)); err != nil {
				t.Fatal(err)
			}
			// Strictly increasing access times, oldest first.
			if err := d.backdate(keys[i], time.Now().Add(time.Duration(i-10)*time.Minute)); err != nil {
				t.Fatal(err)
			}
		}
		// Re-read key 0: it becomes the most recently used despite
		// being written first.
		if _, ok := d.Get(keys[0]); !ok {
			t.Fatalf("%s: key 0 missing before GC", name)
		}

		// Budget for two artifacts: keys 1 and 2 (now the two least
		// recently used) must go; 3 (freshest backdate) and 0 (just
		// read) must stay.
		removed, err := d.GC(0, 2000)
		if err != nil {
			t.Fatal(err)
		}
		if removed != 2 {
			t.Fatalf("%s: GC removed %d, want 2", name, removed)
		}
		for i, want := range []bool{true, false, false, true} {
			if _, ok := d.Get(keys[i]); ok != want {
				t.Errorf("%s: key %d present=%v, want %v", name, i, ok, want)
			}
		}
		if st := d.Stats(); st.Bytes > 2000 {
			t.Errorf("%s: %d bytes remain over the 2000-byte budget", name, st.Bytes)
		}
	}
}

// TestGCAgeInMemory: age-based GC must behave identically in-memory
// and on disk — the in-memory depot tracks last-access times instead
// of silently no-oping (the old behavior returned 0 for maxAge > 0).
func TestGCAgeInMemory(t *testing.T) {
	d, err := Open("")
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
	if err := d.backdate(old, time.Now().Add(-2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	removed, err := d.GC(time.Hour, 0)
	if err != nil || removed != 1 {
		t.Fatalf("in-memory GC(1h) removed %d, err %v (age GC must not no-op in memory)", removed, err)
	}
	if _, ok := d.Get(old); ok {
		t.Fatal("stale in-memory artifact survived age GC")
	}
	if _, ok := d.Get(fresh); !ok {
		t.Fatal("fresh in-memory artifact removed by age GC")
	}
	// A Get refreshes the access time: after touching the survivor,
	// an aggressive age bound must still keep it.
	if removed, err := d.GC(time.Minute, 0); err != nil || removed != 0 {
		t.Fatalf("GC(1m) after access removed %d, err %v", removed, err)
	}
}

// TestGCSweepsOrphanedTempFiles: a crashed writer leaves <id>.tmp*
// debris that the old GC could neither see (only *.json matched) nor
// Stats count. Stale temp files must be counted and reclaimed; young
// ones (a writer mid-Put) must survive.
func TestGCSweepsOrphanedTempFiles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "depot")
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key{Kind: "reports", Source: "s"}
	if err := d.Put(key, []byte("x")); err != nil {
		t.Fatal(err)
	}
	id := key.ID()
	staleTmp := filepath.Join(dir, id[:2], id+".tmp123456")
	youngTmp := filepath.Join(dir, id[:2], id+".tmp654321")
	for _, p := range []string{staleTmp, youngTmp} {
		if err := os.WriteFile(p, []byte("partial write"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-TempGrace - time.Hour)
	if err := os.Chtimes(staleTmp, old, old); err != nil {
		t.Fatal(err)
	}

	st := d.Stats()
	if st.TempFiles != 2 || st.TempBytes != 2*int64(len("partial write")) {
		t.Fatalf("stats do not count temp files: %+v", st)
	}
	if st.Entries != 1 {
		t.Fatalf("temp files counted as artifacts: %+v", st)
	}

	removed, err := d.GC(time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("GC removed %d files, want 1 (the stale temp)", removed)
	}
	if _, err := os.Stat(staleTmp); !os.IsNotExist(err) {
		t.Fatal("stale temp file survived GC")
	}
	if _, err := os.Stat(youngTmp); err != nil {
		t.Fatal("young temp file (writer mid-Put) reclaimed by GC")
	}
	if _, ok := d.Get(key); !ok {
		t.Fatal("artifact lost during temp sweep")
	}
	if st := d.Stats(); st.TempFiles != 1 {
		t.Fatalf("stats after sweep: %+v", st)
	}
}

// TestGCDuringGetStress races Gets (whose recency bump can lose the
// file underneath) against clearing and budgeted GC sweeps plus
// re-Puts. Every hit must be byte-exact and nothing may panic — run
// under -race this is the regression test for the Get stats/Chtimes
// window.
func TestGCDuringGetStress(t *testing.T) {
	d, err := Open(filepath.Join(t.TempDir(), "depot"))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]Key, 16)
	blobs := make([][]byte, len(keys))
	for i := range keys {
		keys[i] = Key{Kind: "reports", Source: fmt.Sprintf("g%d", i)}
		blobs[i] = bytes.Repeat([]byte{byte(i + 1)}, 2048)
		if err := d.Put(keys[i], blobs[i]); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // alternate clearing sweeps and tight byte budgets
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			if i%2 == 0 {
				_, err = d.GC(0, 0)
			} else {
				_, err = d.GC(0, 4096)
			}
			if err != nil {
				t.Errorf("GC: %v", err)
				return
			}
		}
	}()

	wg.Add(1)
	go func() { // writer refills what GC drains
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := range keys {
				if err := d.Put(keys[i], blobs[i]); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() { // readers: hits must be byte-exact
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range keys {
					if b, ok := d.Get(keys[i]); ok && !bytes.Equal(b, blobs[i]) {
						t.Errorf("key %d: torn read under GC: %d bytes", i, len(b))
						return
					}
				}
			}
		}()
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
}
