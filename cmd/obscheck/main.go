// obscheck validates observability artifacts; ci.sh gates on it.
//
// Usage:
//
//	obscheck -prom metrics.txt         validate Prometheus text exposition
//	obscheck -trace trace.json         validate Chrome trace_event JSON
//	obscheck -coverage coverage.json   validate a coverage/v1 artifact
//
// -prom parses the file with the repo's own Prometheus text parser
// (HELP/TYPE discipline, label syntax, histogram bucket contract) and
// prints the family count. -trace requires well-formed trace_event
// JSON with at least one complete ("ph":"X") span and monotone
// per-lane timestamps, and prints the span count plus a per-process
// breakdown (pid, process_name metadata, span count) — CI greps it to
// assert a daemon trace names its mcheckd process. -coverage
// checks kind, key shapes and count invariants of a
// coverage artifact (mcheck -coverage-out, mcheckd /debug/coverage)
// and prints the checker count. Any flag may be repeated; any failure
// exits nonzero.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"flashmc/internal/cover"
	"flashmc/internal/obs"
)

type stringList []string

func (s *stringList) String() string     { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	var promFiles, traceFiles, coverageFiles stringList
	flag.Var(&promFiles, "prom", "Prometheus text exposition file to validate (repeatable)")
	flag.Var(&traceFiles, "trace", "Chrome trace_event JSON file to validate (repeatable)")
	flag.Var(&coverageFiles, "coverage", "coverage/v1 JSON artifact to validate (repeatable)")
	flag.Parse()

	if len(promFiles) == 0 && len(traceFiles) == 0 && len(coverageFiles) == 0 {
		fmt.Fprintln(os.Stderr, "obscheck: nothing to check; pass -prom, -trace and/or -coverage")
		flag.Usage()
		os.Exit(2)
	}

	ok := true
	for _, f := range promFiles {
		r, err := os.Open(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "obscheck: %v\n", err)
			ok = false
			continue
		}
		fams, err := obs.ParsePrometheus(r)
		r.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "obscheck: %s: %v\n", f, err)
			ok = false
			continue
		}
		if len(fams) == 0 {
			fmt.Fprintf(os.Stderr, "obscheck: %s: no metric families\n", f)
			ok = false
			continue
		}
		samples := 0
		for _, fam := range fams {
			samples += len(fam.Samples)
		}
		fmt.Printf("obscheck: %s: %d families, %d samples\n", f, len(fams), samples)
	}
	for _, f := range traceFiles {
		r, err := os.Open(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "obscheck: %v\n", err)
			ok = false
			continue
		}
		stats, err := obs.ValidateTraceStats(r)
		r.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "obscheck: %s: %v\n", f, err)
			ok = false
			continue
		}
		fmt.Printf("obscheck: %s: %d complete spans\n", f, stats.Spans)
		for _, p := range stats.Processes {
			fmt.Printf("obscheck: %s:   pid=%d name=%q spans=%d\n", f, p.PID, p.Name, p.Spans)
		}
	}
	for _, f := range coverageFiles {
		r, err := os.Open(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "obscheck: %v\n", err)
			ok = false
			continue
		}
		n, err := cover.Validate(r)
		r.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "obscheck: %s: %v\n", f, err)
			ok = false
			continue
		}
		if n == 0 {
			fmt.Fprintf(os.Stderr, "obscheck: %s: no checker entries\n", f)
			ok = false
			continue
		}
		fmt.Printf("obscheck: %s: %d checkers\n", f, n)
	}
	if !ok {
		os.Exit(1)
	}
}
