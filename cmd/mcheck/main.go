// mcheck is the xg++ analogue: it applies metal checkers (and the
// built-in FLASH suite) to protocol-C sources.
//
// Usage:
//
//	mcheck [-I dir]... [-checker file.metal]... [-flash] [-j N]
//	       [-cache DIR] [-cache-max-bytes N]
//	       [-triage slice|sym] file.c...
//	mcheck -emit summaries.json file.c...     (local pass, paper §3.2)
//	mcheck -link summaries.json...            (global lane pass, §7)
//
// -emit and -link run no check, so they refuse the flags that shape a
// check run's output (-coverage-out, -metrics, -trace, -cache,
// -cache-max-bytes, -triage, -why, -explain) with exit status 2.
//
// Checkers execute through the internal/sched parallel scheduler: -j
// sizes the worker pool (default GOMAXPROCS) and -cache names a
// content-addressed artifact depot reused across runs, so a re-check
// after an edit re-analyzes only the changed functions and their
// call-graph dependents. cmd/mcheckd serves the same path over HTTP.
// -cache-max-bytes bounds the depot after the run, evicting
// least-recently-used artifacts first.
//
// With -flash the built-in eight-checker FLASH suite runs using the
// naming-convention protocol spec (h_* hardware handlers, sw_*
// software handlers). Each -checker flag compiles and runs one metal
// program. Diagnostics print one per line as file:line:col: message.
//
// Observability: -why prints each report's witness trace (the ordered
// rule firings and branch refinements along the failing path), -trace
// writes a Chrome trace_event JSON file of the run (load it in
// chrome://tracing or ui.perfetto.dev), and -metrics writes process
// metrics in Prometheus text format. -coverage-out writes each
// checker's dynamic rule/state coverage as the coverage/v1 JSON
// artifact (validated by obscheck -coverage; mcheckd serves the same
// artifact at /debug/coverage). Where the time went is -explain's
// per-artifact wall cost and the -trace task spans.
//
// A depot write that fails (an unwritable -cache directory, say) does
// not fail the check: the reports print as usual and one warning line
// on stderr counts the failed writes, which -metrics exports as
// depot_put_errors_total.
//
// Provenance: -explain prints one stderr line per printed report, with
// or without -triage: the artifact it was assembled from, this run's
// cache decision for that artifact, the producer (the computing
// process's pid), checker version, and wall cost. -v adds the run's
// cache decisions by reason to its analysis line, and -metrics exports
// them as sched_cache_decisions_total.
// To compare two runs, save each one's -why stream and diff them.
//
// With -triage every SM report is ranked by path feasibility before
// printing: 'slice' replays reports over loop-bounded paths and
// demotes those firing only on branch-contradictory paths to
// likely-fp; 'sym' additionally runs a bounded symbolic evaluator
// over each firing path and demotes reports whose every path is
// provably unsatisfiable to infeasible. Certain reports print first.
// Verdicts are cached in -cache keyed by program fingerprint, checker,
// triage version, and options, so a warm re-triage skips the replay.
//
// With -lint every checker state machine is linted (package lint)
// before anything runs; lint errors — dead rules, unreachable states,
// patterns outside the protocol vocabulary — abort the run, so a
// broken checker cannot silently report nothing (the paper's §11
// failure mode).
//
// -emit/-link reproduce the paper's file-based inter-procedural
// workflow: the local pass annotates each send with its lane and
// writes per-function flow graphs; the link pass merges any number of
// summary files into a whole-protocol call graph and runs the lane
// quota traversal (with default allowance 1/1/1/1 per handler). Link
// errors, such as a function defined in two files, print as [lanes]
// reports exactly as -flash prints them, and count toward the exit
// status.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"flashmc/internal/cc/cpp"
	"flashmc/internal/checkers"
	"flashmc/internal/core"
	"flashmc/internal/cover"
	"flashmc/internal/depot"
	"flashmc/internal/engine"
	"flashmc/internal/flash"
	"flashmc/internal/global"
	"flashmc/internal/lint"
	"flashmc/internal/obs"
	"flashmc/internal/sched"
)

type stringList []string

func (s *stringList) String() string     { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	var includes, checkerFiles stringList
	flag.Var(&includes, "I", "include search directory (repeatable)")
	flag.Var(&checkerFiles, "checker", "metal checker source file (repeatable)")
	flashSuite := flag.Bool("flash", false, "run the built-in FLASH checker suite")
	lintSMs := flag.Bool("lint", false, "lint checker state machines before running; exit on lint errors")
	verbose := flag.Bool("v", false, "print per-checker summaries and cache statistics")
	emit := flag.String("emit", "", "local pass: write annotated flow-graph summaries to this file")
	link := flag.Bool("link", false, "global pass: arguments are summary files; run the lane checker")
	workers := flag.Int("j", 0, "parallel analysis workers (default GOMAXPROCS)")
	cacheDir := flag.String("cache", "", "artifact depot directory; reuses results for unchanged functions across runs")
	cacheMaxBytes := flag.Int64("cache-max-bytes", 0, "if set, evict least-recently-used depot artifacts beyond this many bytes after the run")
	why := flag.Bool("why", false, "print each report's witness trace (the path steps that led to it)")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON file of the run to this path")
	metricsOut := flag.String("metrics", "", "write Prometheus text exposition of process metrics to this path")
	coverageOut := flag.String("coverage-out", "", "collect per-checker rule/state coverage and write the coverage/v1 JSON artifact to this path")
	triageFlag := flag.String("triage", "", "rank reports by path feasibility: 'slice' (correlated-branch slicing) or 'sym' (slicing plus bounded symbolic evaluation); verdicts cache in -cache")
	explain := flag.Bool("explain", false, "after each report, print its provenance (artifact, cache decision, producer, checker version, cost) to stderr")
	flag.Parse()

	triageMode, ok := lint.ParseTriageMode(*triageFlag)
	if !ok {
		fmt.Fprintf(os.Stderr, "mcheck: -triage %q: want 'slice' or 'sym'\n", *triageFlag)
		os.Exit(2)
	}

	// -j must be a positive worker count; an unset (or zero) flag means
	// "use every CPU" rather than silently misbehaving. -emit and -link
	// run no check, so a flag that shapes a check's output would be
	// ignored there: refuse it instead.
	jSet := false
	var runOnly []string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "j":
			jSet = true
		case "coverage-out", "metrics", "trace", "cache", "cache-max-bytes", "triage", "why", "explain":
			runOnly = append(runOnly, "-"+f.Name)
		}
	})
	if len(runOnly) > 0 && (*link || *emit != "") {
		mode := "-emit"
		if *link {
			mode = "-link"
		}
		fmt.Fprintf(os.Stderr, "mcheck: %s runs no check, so it does not take %s\n", mode, strings.Join(runOnly, ", "))
		os.Exit(2)
	}
	if jSet && *workers < 1 {
		fmt.Fprintf(os.Stderr, "mcheck: -j %d: worker count must be >= 1\n", *workers)
		os.Exit(2)
	}
	if *workers < 1 {
		*workers = runtime.GOMAXPROCS(0)
	}

	files := flag.Args()
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "mcheck: no input files")
		flag.Usage()
		os.Exit(2)
	}

	if *link {
		os.Exit(linkPass(files))
	}

	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
		tracer.SetProcess(os.Getpid(), "mcheck")
	}

	parseSp := tracer.StartSpan("parse", 0)
	prog, err := core.Load("mcheck", cpp.Layered(cpp.OSSource{}, flash.HeaderSource()), files, includes...)
	parseSp.End()
	if err != nil {
		fail("load: %v", err)
	}
	for _, e := range prog.ParseErrors {
		fmt.Fprintf(os.Stderr, "mcheck: %v\n", e)
	}
	if len(prog.ParseErrors) > 0 {
		os.Exit(1)
	}

	if *emit != "" {
		out, err := os.Create(*emit)
		if err != nil {
			fail("%v", err)
		}
		defer out.Close()
		if err := global.Write(out, checkers.Summarize(prog)); err != nil {
			fail("emit: %v", err)
		}
		fmt.Printf("emitted %d function summaries to %s\n", len(prog.Fns), *emit)
		return
	}

	// Ad-hoc metal checkers run first, in flag order, then the
	// built-in suite: the historical run order, which fixes report
	// assembly.
	var adhoc []sched.AdHocChecker
	for _, cf := range checkerFiles {
		src, err := os.ReadFile(cf)
		if err != nil {
			fail("%v", err)
		}
		adhoc = append(adhoc, sched.AdHocChecker{Label: cf, Src: string(src)})
	}
	spec := flash.ConventionSpec(prog.FnNames())
	set, err := sched.BuildJobs(prog, spec, adhoc, *flashSuite)
	if err != nil {
		fail("%v", err)
	}
	jobs := set.Jobs

	if *lintSMs {
		vocab := lint.FlashVocab()
		for _, fn := range prog.Fns {
			vocab.Add(fn.Name)
		}
		lintErrors := 0
		// Lint before anything runs, so a broken checker fails loudly
		// (the paper's §11 failure mode).
		for _, lt := range set.Lint {
			lt.Vocab = vocab
			diags := lint.CheckSM(lt)
			for _, d := range diags {
				if d.Severity >= lint.Warn || *verbose {
					fmt.Fprintf(os.Stderr, "mcheck: lint: %s\n", d)
				}
			}
			lintErrors += len(lint.Errors(diags))
		}
		if lintErrors > 0 {
			fail("lint: %d error(s); not running checkers", lintErrors)
		}
	}

	// The CLI and mcheckd share this execution path: the depot-backed
	// parallel scheduler. Without -cache the depot lives in memory
	// for this one run.
	store, err := depot.Open(*cacheDir)
	if err != nil {
		fail("%v", err)
	}
	var covSet *cover.Set
	if *coverageOut != "" {
		covSet = cover.NewSet()
	}
	analyzer := &sched.Analyzer{Depot: store, Workers: *workers, Tracer: tracer, Coverage: covSet}
	res, err := analyzer.Check(sched.Request{Prog: prog, Spec: spec, Jobs: jobs})
	if err != nil {
		fail("%v", err)
	}
	reports := res.Reports
	if *verbose {
		byChecker := map[string]int{}
		for _, r := range reports {
			byChecker[r.SM]++
		}
		for _, j := range jobs {
			fmt.Printf("checker %s: %d reports\n", j.Name, byChecker[j.Name])
		}
		st := res.Stats
		fmt.Printf("analysis: %d functions, %d tasks, %d cache hits, %d misses (%.0f%% hit rate; %s), %d re-analyzed, %s elapsed\n",
			st.Functions, st.Tasks, st.CacheHits, st.CacheMisses,
			100*float64(st.CacheHits)/float64(max(1, st.CacheHits+st.CacheMisses)),
			st.DecisionLine(), len(st.Reanalyzed), st.Elapsed.Round(1000000))
	}

	// Both modes print through one permutation of res.Reports, so each
	// report keeps its Result.RefIdx provenance link for -explain;
	// triage verdicts are index-aligned with the reports they rank.
	order := engine.PosOrder(reports)
	var ranked []lint.RankedReport
	if triageMode != "" {
		// Second triage rung: rank every report by path feasibility,
		// serving verdicts from the depot when the program, checker,
		// and triage options are unchanged.
		var tst sched.TriageStats
		ranked, tst = analyzer.TriageReports(sched.TriageRequest{Prog: prog,
			SMs: set.SMs, Versions: set.Versions, Reports: reports,
			Options: lint.TriageOptions{Mode: triageMode}})
		if *verbose {
			fmt.Printf("triage: %d verdict groups from cache, %d recomputed\n",
				tst.CacheHits, tst.CacheMisses)
		}
		order = lint.RankedOrder(ranked)
	}
	for _, ri := range order {
		r := reports[ri]
		if ranked != nil {
			fmt.Printf("%s: [%s] %s (%s: %s)\n", r.Pos, r.SM, r.Msg, ranked[ri].Confidence, ranked[ri].Reason)
		} else {
			fmt.Printf("%s: [%s] %s\n", r.Pos, r.SM, r.Msg)
		}
		if *why {
			for i, s := range r.Trace {
				fmt.Printf("    #%d %s\n", i+1, s)
			}
		}
		if *explain {
			explainReport(store, res, ri)
		}
	}

	// Enforce the byte budget after the run (and before the -metrics
	// dump, so depot_gc_evicted_bytes_total reflects it):
	// this run's own artifacts count, so a depot shared across runs
	// stays bounded no matter who wrote last.
	if *cacheMaxBytes > 0 {
		if _, err := store.GC(0, *cacheMaxBytes); err != nil {
			fail("cache gc: %v", err)
		}
	}

	if *traceOut != "" {
		out, err := os.Create(*traceOut)
		if err != nil {
			fail("%v", err)
		}
		if err := tracer.WriteJSON(out); err != nil {
			out.Close()
			fail("trace: %v", err)
		}
		if err := out.Close(); err != nil {
			fail("trace: %v", err)
		}
	}
	if covSet != nil {
		out, err := os.Create(*coverageOut)
		if err != nil {
			fail("%v", err)
		}
		if err := covSet.Snapshot().WriteJSON(out); err != nil {
			out.Close()
			fail("coverage: %v", err)
		}
		if err := out.Close(); err != nil {
			fail("coverage: %v", err)
		}
	}
	if *metricsOut != "" {
		out, err := os.Create(*metricsOut)
		if err != nil {
			fail("%v", err)
		}
		if err := obs.Default.WritePrometheus(out); err != nil {
			out.Close()
			fail("metrics: %v", err)
		}
		if err := out.Close(); err != nil {
			fail("metrics: %v", err)
		}
	}

	// A failed depot write costs the next run a recompute, not this
	// run its reports; say so once.
	if n := obs.Default.Counter("depot_put_errors_total", "").Value(); n > 0 {
		fmt.Fprintf(os.Stderr, "mcheck: warning: %.0f depot write(s) failed; results were not cached\n", n)
	}

	if len(reports) > 0 {
		os.Exit(1)
	}
}

// linkPass merges summary files and runs the global lane traversal.
func linkPass(files []string) int {
	var sums []*global.Summary
	for _, f := range files {
		r, err := os.Open(f)
		if err != nil {
			fail("%v", err)
		}
		s, err := global.Read(r)
		r.Close()
		if err != nil {
			fail("%s: %v", f, err)
		}
		sums = append(sums, s...)
	}
	prog, errs := global.Link(sums)
	names := make([]string, 0, len(prog.Funcs))
	for fn := range prog.Funcs {
		names = append(names, fn)
	}
	sort.Strings(names)
	spec := flash.ConventionSpec(names)
	reports, _ := checkers.CheckLanesCov(prog, spec)
	linkReports, _ := checkers.LinkReports(errs)
	reports = append(reports, linkReports...)
	// Position order, as -flash prints the same [lanes] reports.
	for _, i := range engine.PosOrder(reports) {
		fmt.Printf("%s: [lanes] %s\n", reports[i].Pos, reports[i].Msg)
	}
	fmt.Printf("linked %d functions, %d handlers, %d report(s)\n",
		len(prog.Funcs), len(spec.Hardware)+len(spec.Software), len(reports))
	if len(reports) > 0 {
		return 1
	}
	return 0
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mcheck: "+format+"\n", args...)
	os.Exit(1)
}
