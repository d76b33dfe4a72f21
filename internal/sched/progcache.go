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

// ProgramCache shares parsed programs across requests, keyed by
// SourceHash. A hit serves the live *core.Program — loaded programs
// are immutable after Load, so concurrent checks can share one — and
// skips the frontend (cpp, lex, parse, typecheck, CFG) entirely.
// Concurrent misses for the same hash are single-flighted: one parse,
// every waiter shares it. A resident program also carries its
// memoized fingerprints (see Fingerprints), so a hit skips the
// fingerprint walk too.
type ProgramCache struct {
	// Cap bounds how many parsed programs stay resident (LRU evicted
	// beyond it); <= 0 means 8.
	Cap int

	mu      sync.Mutex
	seq     uint64
	entries map[string]*pcEntry
	flights map[string]*pcFlight
}

type pcEntry struct {
	prog *core.Program
	seq  uint64
}

type pcFlight struct {
	done chan struct{}
	prog *core.Program
	err  error
}

func (c *ProgramCache) cap() int {
	if c.Cap <= 0 {
		return 8
	}
	return c.Cap
}

// Len returns the number of resident programs.
func (c *ProgramCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Load returns the program for srcHash, parsing with parse() only on
// a miss. hit reports whether the frontend was skipped — true both
// for resident programs and for followers that shared a leader's
// in-flight parse. Parse failures are returned, never cached.
func (c *ProgramCache) Load(srcHash string, parse func() (*core.Program, error)) (prog *core.Program, hit bool, err error) {
	c.mu.Lock()
	if c.entries == nil {
		c.entries = map[string]*pcEntry{}
		c.flights = map[string]*pcFlight{}
	}
	if e, ok := c.entries[srcHash]; ok {
		c.seq++
		e.seq = c.seq
		c.mu.Unlock()
		return e.prog, true, nil
	}
	if fl, ok := c.flights[srcHash]; ok {
		c.mu.Unlock()
		<-fl.done
		return fl.prog, fl.err == nil, fl.err
	}
	fl := &pcFlight{done: make(chan struct{})}
	c.flights[srcHash] = fl
	c.mu.Unlock()

	fl.prog, fl.err = parse()
	if fl.err != nil {
		fl.prog = nil
	}

	c.mu.Lock()
	delete(c.flights, srcHash)
	if fl.err == nil {
		c.seq++
		c.entries[srcHash] = &pcEntry{prog: fl.prog, seq: c.seq}
		for len(c.entries) > c.cap() {
			lruHash, lruSeq := "", uint64(0)
			for h, e := range c.entries {
				if lruHash == "" || e.seq < lruSeq {
					lruHash, lruSeq = h, e.seq
				}
			}
			delete(c.entries, lruHash)
		}
	}
	c.mu.Unlock()
	close(fl.done)
	return fl.prog, false, fl.err
}
