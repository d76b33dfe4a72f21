// mcheckd is the long-running analysis service: the same
// depot-backed parallel scheduler cmd/mcheck runs once per
// invocation, kept warm behind HTTP so repeated checks of an evolving
// protocol tree pay only for what changed.
//
// Usage:
//
//	mcheckd [-addr :8181] [-cache DIR] [-cache-max-bytes N]
//	        [-j N] [-gc AGE]
//
// Endpoints:
//
//	POST /check    JSON {files, roots?, checkers?, flash?, triage?} in,
//	               ranked reports + cache/scheduler statistics out.
//	               Unchanged functions ride the warm-cache path.
//	GET  /metrics  Prometheus text: request/task counters and
//	               latencies, cache hit rate, queue depth, depot size,
//	               plus the process-wide engine/sched/depot metrics.
//	GET  /healthz  readiness probe: 200 {"status":"ok"} while the
//	               depot is reachable, 503 {"status":"degraded"} once
//	               its root is gone, so a load balancer drains.
//	GET  /debug/coverage     accumulated coverage/v1 JSON of every
//	               checker across all requests served.
//	GET  /debug/timings      per-checker and per-rule wall-time
//	               attribution.
//	GET  /debug/trace/<id>   Chrome trace of one recent request (the
//	               id is its response's X-Trace-Id header).
//	GET  /debug/runs         the depot's run ledger; /debug/runs/<id>
//	               shows one entry, /debug/runs/diff?a=&b= compares two.
//	GET  /debug/pprof/*  runtime profiles (CPU, heap, goroutines).
//
// Identical concurrent /check requests (same program fingerprint, job
// list, and triage mode) are deduplicated: one computes, the rest
// share its response. Every response carries an X-Request-Id header
// that also tags the server's structured log lines.
//
// -cache names the artifact depot shared with mcheck -cache; without
// it the depot lives in memory for the life of the process (still
// warm across requests). -gc prunes depot entries unused for the
// given age; -cache-max-bytes bounds the depot, with
// least-recently-used artifacts evicted first. Either option sweeps
// once at startup and then by write pressure: the Put that crosses
// -cache-max-bytes/8 (else 8 MiB) of writes since the last sweep runs
// the next one.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"runtime"

	"flashmc/internal/depot"
)

func main() {
	addr := flag.String("addr", ":8181", "listen address")
	cacheDir := flag.String("cache", "", "artifact depot directory (default: in-memory, per-process)")
	cacheMaxBytes := flag.Int64("cache-max-bytes", 0, "if set, evict least-recently-used depot artifacts beyond this many bytes")
	workers := flag.Int("j", 0, "parallel analysis workers (default GOMAXPROCS)")
	gcAge := flag.Duration("gc", 0, "if set, evict depot entries unused for this long (swept at startup and under write pressure)")
	flag.Parse()

	// -j must be a positive worker count; unset means every CPU.
	jSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "j" {
			jSet = true
		}
	})
	if jSet && *workers < 1 {
		fmt.Fprintf(os.Stderr, "mcheckd: -j %d: worker count must be >= 1\n", *workers)
		os.Exit(2)
	}
	if *workers < 1 {
		*workers = runtime.GOMAXPROCS(0)
	}

	store, err := depot.Open(*cacheDir)
	if err != nil {
		log.Fatalf("mcheckd: %v", err)
	}
	if *gcAge > 0 || *cacheMaxBytes > 0 {
		if n, err := store.GC(*gcAge, *cacheMaxBytes); err != nil {
			log.Printf("mcheckd: gc: %v", err)
		} else if n > 0 {
			log.Printf("mcheckd: gc evicted %d entries", n)
		}
		// After the startup sweep, GC runs on write pressure: the Put
		// that crosses the byte threshold sweeps. An idle depot is
		// never walked; a hot one is swept in proportion to its growth.
		store.SetGCPolicy(*gcAge, *cacheMaxBytes)
	}

	srv := newServer(store, *workers)
	log.Printf("mcheckd: listening on %s (cache=%q workers=%d)", *addr, *cacheDir, *workers)
	log.Fatal(http.ListenAndServe(*addr, srv))
}
