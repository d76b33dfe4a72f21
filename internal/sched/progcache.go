package sched

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"sort"
	"sync"

	"flashmc/internal/core"
)

// FrontendVersion salts program-cache keys with the frontend's
// identity. Bump it when the preprocessor, parser, type checker, CFG
// builder, or fingerprint function changes observable output — a
// stale cached program must miss, not serve old shapes.
const FrontendVersion = "frontend/v2"

// SourceHash content-addresses one frontend invocation: the file set
// (names and contents), the root ordering, and the frontend version.
// Two requests with the same hash parse to identical programs, which
// is what makes the cached *core.Program safely shareable.
func SourceHash(files map[string]string, roots []string) string {
	h := sha256.New()
	io.WriteString(h, FrontendVersion)
	h.Write([]byte{0})
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		io.WriteString(h, name)
		h.Write([]byte{0})
		io.WriteString(h, files[name])
		h.Write([]byte{0})
	}
	io.WriteString(h, "roots")
	h.Write([]byte{0})
	for _, r := range roots {
		io.WriteString(h, r)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// programCacheCap bounds how many parsed programs a ProgramCache keeps
// resident; beyond it the least recently used one is evicted.
const programCacheCap = 8

// ProgramCache shares parsed programs across requests, keyed by
// SourceHash. A hit serves the live *core.Program — loaded programs
// are immutable after Load, so concurrent checks can share one — and
// skips the frontend (cpp, lex, parse, typecheck, CFG) entirely. A
// resident program also carries its memoized fingerprints (see
// Fingerprints), so a hit skips the fingerprint walk too. The cache
// does not deduplicate concurrent misses: cmd/mcheckd single-flights
// whole requests before they reach it.
type ProgramCache struct {
	mu      sync.Mutex
	seq     uint64
	entries map[string]*pcEntry
}

type pcEntry struct {
	prog *core.Program
	seq  uint64
}

// Len returns the number of resident programs.
func (c *ProgramCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Load returns the program for srcHash, parsing with parse() only on
// a miss; hit reports whether the frontend was skipped. Parse failures
// are returned, never cached.
func (c *ProgramCache) Load(srcHash string, parse func() (*core.Program, error)) (prog *core.Program, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[srcHash]; ok {
		c.seq++
		e.seq = c.seq
		c.mu.Unlock()
		return e.prog, true, nil
	}
	c.mu.Unlock()

	prog, err = parse()
	if err != nil {
		return nil, false, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries == nil {
		c.entries = map[string]*pcEntry{}
	}
	c.seq++
	c.entries[srcHash] = &pcEntry{prog: prog, seq: c.seq}
	for len(c.entries) > programCacheCap {
		lruHash, lruSeq := "", uint64(0)
		for h, e := range c.entries {
			if lruHash == "" || e.seq < lruSeq {
				lruHash, lruSeq = h, e.seq
			}
		}
		delete(c.entries, lruHash)
	}
	return prog, false, nil
}
