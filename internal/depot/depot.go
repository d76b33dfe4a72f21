// Package depot is a content-addressed artifact store for incremental
// analysis. The paper's inter-procedural framework (§7) already
// persists per-function annotated flow graphs to files; the depot
// generalizes that file-based design into a cache every analysis
// artifact flows through: parsed-AST fingerprints, per-function
// CFG/summary blobs (internal/global's JSON format), per-function
// checker reports, and whole-program parse manifests.
//
// Artifacts are addressed by Key — hash(preprocessed source) ×
// checker-id × checker-version × engine-options — so a change to any
// input (the code, the checker, its version, or the options it ran
// under) misses the cache instead of serving a stale result. Each
// artifact is one file, dir/<id[:2]>/<id>.json. Writes are atomic
// (temp file + rename), so a depot directory can be shared by
// concurrent mcheck runs and a live mcheckd without torn reads.
//
// GC supports both an age bound and a byte budget: artifacts unused
// for maxAge go first, then least-recently-used artifacts are evicted
// until the depot fits maxBytes. Recency is the file mtime, which Get
// bumps, so every process sharing the directory sees the same order
// and it survives restarts.
package depot

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flashmc/internal/obs"
)

// Process-wide depot traffic, aggregated across all open depots (the
// per-Depot Stats counters stay per-instance).
var (
	mHits       = obs.NewCounter("depot_hits_total", "artifact cache hits")
	mMisses     = obs.NewCounter("depot_misses_total", "artifact cache misses")
	mPuts       = obs.NewCounter("depot_puts_total", "artifacts stored")
	mPutBytes   = obs.NewCounter("depot_put_bytes_total", "bytes of artifacts stored")
	mGCRuns     = obs.NewCounter("depot_gc_runs_total", "GC sweeps")
	mGCRemovals = obs.NewCounter("depot_gc_removed_total", "artifacts removed by GC")
	mGCEvicted  = obs.NewCounter("depot_gc_evicted_bytes_total", "bytes reclaimed by GC (age, budget, and temp sweeps)")
	mGCPressure = obs.NewCounter("depot_gc_pressure_sweeps_total", "GC sweeps triggered by Put write pressure")
)

const (
	// manifestName is the layout file older depots wrote at their
	// root. New depots write none; Open only reads one to refuse
	// layouts this store cannot serve.
	manifestName = "DEPOT"
	// tempGrace is how old an orphaned Put temp file must be before a
	// GC sweep reclaims it. Live writers rename within milliseconds;
	// anything this stale belongs to a crashed writer.
	tempGrace = 15 * time.Minute
)

// Key addresses one artifact. Every field participates in the
// content address; the zero value of unused fields is fine (summary
// blobs, for example, carry no checker id).
type Key struct {
	// Kind is the artifact class: "summary", "reports/v3",
	// "triage/v1", ...
	Kind string
	// Source is the content hash of the analyzed unit — a function's
	// parsed-AST fingerprint, or a whole-program fingerprint for
	// global passes. It transitively covers the preprocessed source:
	// the AST is built from it, and node positions pin the layout.
	Source string
	// Checker is the stable checker identifier ("" for summaries).
	Checker string
	// Version is the checker's semantic version; a bump is a miss.
	Version string
	// Options hashes everything else that shapes the result: the
	// protocol spec, engine options, checker source for ad-hoc metal
	// files.
	Options string
}

// ID returns the hex content address of the key.
func (k Key) ID() string {
	h := sha256.New()
	for _, f := range []string{k.Kind, k.Source, k.Checker, k.Version, k.Options} {
		h.Write([]byte(f))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// memEntry is one in-memory artifact plus the recency state that
// makes age- and budget-GC behave like the on-disk depot.
type memEntry struct {
	data  []byte
	atime time.Time
	seq   uint64
}

// Depot is the store. A Depot with an empty directory lives in
// memory (useful for tests and for running without -cache); otherwise
// artifacts are files under dir, fanned out by the first address byte.
type Depot struct {
	dir string

	mu  sync.Mutex
	mem map[string]*memEntry
	seq uint64

	hits   atomic.Uint64
	misses atomic.Uint64
	puts   atomic.Uint64

	// Put-pressure GC (SetGCPolicy): bytes written since the last
	// sweep, and the CAS flag serializing sweeps.
	gc       atomic.Pointer[gcPolicy]
	written  atomic.Int64
	sweeping atomic.Bool
}

// gcPolicy is the put-pressure GC configuration.
type gcPolicy struct {
	maxAge    time.Duration
	maxBytes  int64
	threshold int64
}

// manifest is the DEPOT file older depots wrote to pin a sharded
// layout: version 1 recorded only the shard count, version 2 also
// each shard's absolute root path.
type manifest struct {
	Shards int      `json:"shards"`
	Paths  []string `json:"paths"`
}

// Open returns a depot rooted at dir, creating it if needed; an empty
// dir opens an in-memory depot. A DEPOT manifest left by an older
// depot must describe one root at dir — a corrupt one, or one naming
// several shards or another root, is refused rather than half-read.
func Open(dir string) (*Depot, error) {
	d := &Depot{dir: dir}
	if dir == "" {
		d.mem = map[string]*memEntry{}
		return d, nil
	}
	if err := checkManifest(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("depot: %w", err)
	}
	return d, nil
}

// checkManifest accepts a missing DEPOT file, or one pinning a single
// shard whose root (if recorded) is dir itself.
func checkManifest(dir string) error {
	mf := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(mf)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("depot: manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil || m.Shards < 1 || (len(m.Paths) > 0 && len(m.Paths) != m.Shards) {
		return fmt.Errorf("depot: corrupt manifest %s", mf)
	}
	if m.Shards > 1 {
		return fmt.Errorf("depot: %s pins a %d-shard layout; only single-root depots can be opened (use a fresh directory)", mf, m.Shards)
	}
	if len(m.Paths) == 1 && !sameDir(m.Paths[0], dir) {
		return fmt.Errorf("depot: %s pins the depot root at %s, not %s (use a fresh directory)", mf, m.Paths[0], dir)
	}
	return nil
}

// sameDir reports whether two spellings (relative, absolute, through
// a symlink) name one existing directory.
func sameDir(a, b string) bool {
	ia, errA := os.Stat(a)
	ib, errB := os.Stat(b)
	return errA == nil && errB == nil && os.SameFile(ia, ib)
}

// Ping verifies the depot's storage is reachable: the root directory
// still exists. In-memory depots always succeed. It backs readiness
// endpoints — a daemon whose cache volume unmounted should drain, not
// 500.
func (d *Depot) Ping() error {
	if d.mem != nil {
		return nil
	}
	if _, err := os.Stat(d.dir); err != nil {
		return fmt.Errorf("depot: root: %w", err)
	}
	return nil
}

// path returns the on-disk location of an address.
func (d *Depot) path(id string) string {
	return filepath.Join(d.dir, id[:2], id+".json")
}

// Get returns the artifact stored under key, if present. Hits bump
// the entry's mtime so GC retains recently used artifacts.
func (d *Depot) Get(key Key) ([]byte, bool) {
	id := key.ID()
	now := time.Now()
	if d.mem != nil {
		d.mu.Lock()
		e, ok := d.mem[id]
		var b []byte
		if ok {
			b = e.data
			e.atime = now
			d.seq++
			e.seq = d.seq
		}
		d.mu.Unlock()
		d.count(ok)
		return b, ok
	}
	p := d.path(id)
	b, err := os.ReadFile(p)
	if err != nil {
		d.count(false)
		return nil, false
	}
	// Best-effort recency bump. GC may have removed the file between
	// the read and the bump, or a concurrent Put may have renamed a new
	// generation into place so the bump lands on a file that is already
	// at least this fresh — both are harmless, and on a permission or
	// IO failure recency falls back to the last good bump, so every
	// error is tolerated.
	_ = os.Chtimes(p, now, now)
	d.count(true)
	return b, true
}

func (d *Depot) count(hit bool) {
	if hit {
		d.hits.Add(1)
		mHits.Inc()
	} else {
		d.misses.Add(1)
		mMisses.Inc()
	}
}

// Put stores blob under key. On-disk writes go through a temp file in
// the destination directory and a rename, so readers never observe a
// partial artifact and concurrent writers of the same key converge.
func (d *Depot) Put(key Key, blob []byte) error {
	id := key.ID()
	d.puts.Add(1)
	mPuts.Inc()
	mPutBytes.Add(float64(len(blob)))
	if d.mem != nil {
		d.mu.Lock()
		d.seq++
		d.mem[id] = &memEntry{data: append([]byte(nil), blob...), atime: time.Now(), seq: d.seq}
		d.mu.Unlock()
		d.notePut(len(blob))
		return nil
	}
	dst := d.path(id)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("depot: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(dst), id+".tmp*")
	if err != nil {
		return fmt.Errorf("depot: %w", err)
	}
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("depot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("depot: %w", err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("depot: %w", err)
	}
	d.notePut(len(blob))
	return nil
}

// SetGCPolicy arms put-pressure GC: once maxBytes/8 bytes (8 MiB
// without a byte budget) have been written since the last sweep, the
// Put that crosses the line runs GC(maxAge, maxBytes) inline before
// returning. Sweeping on write pressure instead of a fixed cadence
// means an idle depot is never walked and a hot one is swept exactly
// as often as it grows. With neither bound set the policy is disarmed
// (GC(0, 0) would clear the depot).
func (d *Depot) SetGCPolicy(maxAge time.Duration, maxBytes int64) {
	if maxAge <= 0 && maxBytes <= 0 {
		d.gc.Store(nil)
		return
	}
	threshold := maxBytes / 8
	if threshold <= 0 {
		threshold = 8 << 20
	}
	d.gc.Store(&gcPolicy{maxAge: maxAge, maxBytes: maxBytes, threshold: threshold})
}

// notePut accounts freshly written bytes against the pressure
// threshold, sweeping synchronously on the crossing Put. Concurrent
// writers skip the sweep another has claimed (CAS) rather than queue
// behind it.
func (d *Depot) notePut(n int) {
	p := d.gc.Load()
	if p == nil {
		return
	}
	if d.written.Add(int64(n)) < p.threshold {
		return
	}
	if !d.sweeping.CompareAndSwap(false, true) {
		return
	}
	defer d.sweeping.Store(false)
	d.written.Store(0)
	mGCPressure.Inc()
	d.GC(p.maxAge, p.maxBytes)
}

// PutJSON marshals v and stores it under key.
func (d *Depot) PutJSON(key Key, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("depot: %w", err)
	}
	return d.Put(key, b)
}

// GetJSON loads the artifact under key into v; the bool reports
// whether the key was present and decoded.
func (d *Depot) GetJSON(key Key, v any) bool {
	b, ok := d.Get(key)
	if !ok {
		return false
	}
	if err := json.Unmarshal(b, v); err != nil {
		// A corrupt artifact is a miss; the caller recomputes and
		// overwrites it.
		return false
	}
	return true
}

// Stats describes the depot's contents and this process's traffic.
type Stats struct {
	// Entries and Bytes describe the artifacts stored now.
	Entries int
	Bytes   int64
	// TempFiles and TempBytes count orphaned Put temp files — debris
	// from crashed writers, reclaimed by GC once they outlive the
	// grace period.
	TempFiles int
	TempBytes int64
	// Hits, Misses and Puts count this process's Get/Put traffic.
	Hits   uint64
	Misses uint64
	Puts   uint64
}

// HitRate is hits/(hits+misses), 0 with no traffic.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Stats walks the store and returns its current size plus traffic
// counters.
func (d *Depot) Stats() Stats {
	st := Stats{Hits: d.hits.Load(), Misses: d.misses.Load(), Puts: d.puts.Load()}
	if d.mem != nil {
		d.mu.Lock()
		st.Entries = len(d.mem)
		for _, e := range d.mem {
			st.Bytes += int64(len(e.data))
		}
		d.mu.Unlock()
		return st
	}
	for _, f := range d.scan() {
		if f.temp {
			st.TempFiles++
			st.TempBytes += f.size
		} else {
			st.Entries++
			st.Bytes += f.size
		}
	}
	return st
}

// scanFile is one file found by a depot walk.
type scanFile struct {
	path  string
	id    string // artifact id ("" for temp files)
	size  int64
	mtime time.Time
	temp  bool
}

// scan walks the depot root and returns its artifacts and temp files.
// A legacy manifest or LRU index left by an older depot carries no
// .json extension and no ".tmp" infix, so it is invisible here.
func (d *Depot) scan() []scanFile {
	var out []scanFile
	filepath.WalkDir(d.dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return nil
		}
		name := e.Name()
		temp := strings.Contains(name, ".tmp")
		if !temp && filepath.Ext(name) != ".json" {
			return nil
		}
		info, err := e.Info()
		if err != nil {
			return nil
		}
		f := scanFile{path: path, size: info.Size(), mtime: info.ModTime(), temp: temp}
		if !temp {
			f.id = strings.TrimSuffix(name, ".json")
		}
		out = append(out, f)
		return nil
	})
	return out
}

// GC reclaims space in two passes and returns how many files it
// removed. With maxAge > 0, artifacts unused for longer are removed
// (unused = not read or written, across every process sharing the
// depot). With maxBytes > 0, least-recently-used artifacts are then
// evicted until the stored bytes fit the budget. maxAge <= 0 &&
// maxBytes <= 0 clears the depot. Every sweep also reclaims orphaned
// Put temp files older than a grace period — debris from crashed
// writers that would otherwise be invisible and immortal.
func (d *Depot) GC(maxAge time.Duration, maxBytes int64) (int, error) {
	mGCRuns.Inc()
	if d.mem != nil {
		return d.gcMem(maxAge, maxBytes), nil
	}

	now := time.Now()
	clearAll := maxAge <= 0 && maxBytes <= 0
	removed := 0
	var evictedBytes int64

	// Sweep stale temp files and apply the age bound. Recency is the
	// file mtime: Get bumps it, so reads by every process sharing the
	// depot count.
	var survivors []scanFile
	var total int64
	cutoff := now.Add(-maxAge)
	for _, f := range d.scan() {
		if f.temp {
			if now.Sub(f.mtime) > tempGrace && os.Remove(f.path) == nil {
				removed++
				evictedBytes += f.size
			}
			continue
		}
		if clearAll || (maxAge > 0 && f.mtime.Before(cutoff)) {
			if os.Remove(f.path) == nil {
				removed++
				evictedBytes += f.size
			}
			continue
		}
		survivors = append(survivors, f)
		total += f.size
	}

	// Byte budget: evict least-recently-used first. A survivor whose
	// mtime advanced since the scan was re-put or read concurrently; it
	// is fresh again, so skip it.
	if maxBytes > 0 && total > maxBytes {
		sort.Slice(survivors, func(i, j int) bool { return survivors[i].mtime.Before(survivors[j].mtime) })
		for _, f := range survivors {
			if total <= maxBytes {
				break
			}
			if info, err := os.Stat(f.path); err != nil || info.ModTime().After(f.mtime) {
				if err != nil {
					total -= f.size // already gone
				}
				continue
			}
			if os.Remove(f.path) == nil {
				removed++
				evictedBytes += f.size
				total -= f.size
			}
		}
	}

	mGCRemovals.Add(float64(removed))
	mGCEvicted.Add(float64(evictedBytes))
	return removed, nil
}

// gcMem applies the same age/budget semantics to the in-memory depot:
// entries carry last-access times and an access sequence, so age-based
// GC and LRU eviction behave identically to the on-disk store.
func (d *Depot) gcMem(maxAge time.Duration, maxBytes int64) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	removed := 0
	var evictedBytes int64
	if maxAge <= 0 && maxBytes <= 0 {
		removed = len(d.mem)
		for _, e := range d.mem {
			evictedBytes += int64(len(e.data))
		}
		d.mem = map[string]*memEntry{}
	} else {
		if maxAge > 0 {
			cutoff := time.Now().Add(-maxAge)
			for id, e := range d.mem {
				if e.atime.Before(cutoff) {
					removed++
					evictedBytes += int64(len(e.data))
					delete(d.mem, id)
				}
			}
		}
		if maxBytes > 0 {
			var total int64
			for _, e := range d.mem {
				total += int64(len(e.data))
			}
			if total > maxBytes {
				ids := make([]string, 0, len(d.mem))
				for id := range d.mem {
					ids = append(ids, id)
				}
				sort.Slice(ids, func(i, j int) bool {
					a, b := d.mem[ids[i]], d.mem[ids[j]]
					if !a.atime.Equal(b.atime) {
						return a.atime.Before(b.atime)
					}
					return a.seq < b.seq // same instant: access order decides
				})
				for _, id := range ids {
					if total <= maxBytes {
						break
					}
					n := int64(len(d.mem[id].data))
					delete(d.mem, id)
					removed++
					evictedBytes += n
					total -= n
				}
			}
		}
	}
	mGCRemovals.Add(float64(removed))
	mGCEvicted.Add(float64(evictedBytes))
	return removed
}
