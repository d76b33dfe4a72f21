package sched

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"flashmc/internal/checkers"
	"flashmc/internal/core"
	"flashmc/internal/cover"
	"flashmc/internal/depot"
	"flashmc/internal/engine"
	"flashmc/internal/flash"
	"flashmc/internal/global"
	"flashmc/internal/lint"
	"flashmc/internal/obs"
)

// reportsKind versions the depot's report-artifact format. v2 added
// witness traces; v3 stores the run's dynamic coverage alongside the
// reports, so a warm run replays exactly the coverage the cold run
// measured — the property the warm==cold coverage gate tests. Bumping
// the kind (rather than every checker version) retires all stale
// cached payloads at once, including those of ad-hoc checkers.
const reportsKind = "reports/v3"

// artifact is the depot payload for report-producing tasks: the
// reports plus the non-empty coverages the run recorded. Coverage
// holds counts only (see engine.Coverage), so the payload stays
// byte-deterministic.
type artifact struct {
	Reports  []engine.Report    `json:"reports"`
	Coverage []*engine.Coverage `json:"coverage,omitempty"`
}

// mkArtifact bundles reports with the non-empty subset of covs.
func mkArtifact(reports []engine.Report, covs ...*engine.Coverage) artifact {
	a := artifact{Reports: reports}
	for _, c := range covs {
		if !c.Empty() {
			a.Coverage = append(a.Coverage, c)
		}
	}
	return a
}

// Job is one checker to run over a program. Exactly one of SM,
// Run/RunCov, or Lanes is set:
//
//   - SM jobs run a state machine per function, cached per function;
//   - Run/RunCov jobs are whole-program passes, cached per program;
//   - the Lanes job is the §7 inter-procedural pass, decomposed into
//     per-function summary tasks, a link task, and per-handler
//     traversals cached by the handler's call-graph cone.
type Job struct {
	// Name is the checker id in depot keys and reports.
	Name string
	// Version is the checker's semantic version (checkers.Version);
	// a bump misses the cache.
	Version string
	// Options hashes the remaining inputs: protocol spec, engine
	// options, ad-hoc checker source.
	Options string

	SM *engine.SM
	// Run is a whole-program pass for callers with no coverage to
	// report. RunCov, when set, is preferred: it also returns the pass's
	// dynamic coverage (FlashJobs sets only RunCov, from
	// checkers.Checker.CheckCov).
	Run    func(p *core.Program) []engine.Report
	RunCov func(p *core.Program) ([]engine.Report, []*engine.Coverage)
	Lanes  bool
}

// Request is one analysis of one loaded program.
type Request struct {
	Prog *core.Program
	Spec *flash.Spec
	// Jobs run in order; the order fixes report assembly, so equal
	// requests produce byte-identical report streams whether results
	// come from the cache or from execution.
	Jobs []Job
	// Tracer, when non-nil, overrides the analyzer's tracer for this
	// request — mcheckd records one tracer per /check so traces do not
	// interleave across concurrent requests.
	Tracer *obs.Tracer
	// TraceID is the request's trace identity (mcheckd derives it from
	// X-Request-Id); it is stamped on the provenance of every artifact
	// the request computes.
	TraceID string
}

// Stats describes one Check call.
type Stats struct {
	// Functions is the number of function definitions analyzed.
	Functions int
	// Tasks and TaskTime sum the scheduler's three passes.
	Tasks    int
	TaskTime time.Duration
	// Elapsed is the wall time of the whole Check call.
	Elapsed time.Duration
	// QueueWait is the summed time tasks waited, from the start of
	// their pass, for a worker to claim them.
	QueueWait time.Duration
	// CacheHits and CacheMisses count depot lookups for this call.
	CacheHits   int
	CacheMisses int
	// Reanalyzed lists the distinct functions (and, for the lane
	// pass, handlers) whose per-function artifacts missed the cache
	// and were recomputed, sorted. A single-function edit should keep
	// this to the function itself plus its call-graph dependents.
	Reanalyzed []string
	// GlobalReruns counts whole-program passes that missed (they
	// re-run on any program change and are not per-function work).
	GlobalReruns int
	// Decisions breaks the depot lookups down by cache-decision
	// reason (DecisionHit, DecisionNew, ...). The values sum to
	// CacheHits + CacheMisses.
	Decisions map[string]int
}

// DecisionLine renders Decisions in a fixed, greppable order:
// "hit=H new=N vb=V oc=O dep=D ev=E".
func (s Stats) DecisionLine() string {
	short := map[string]string{
		DecisionHit: "hit", DecisionNew: "new", DecisionVersionBump: "vb",
		DecisionOptionsChanged: "oc", DecisionDepInvalidated: "dep", DecisionEvicted: "ev",
	}
	parts := make([]string, 0, len(DecisionReasons))
	for _, r := range DecisionReasons {
		parts = append(parts, fmt.Sprintf("%s=%d", short[r], s.Decisions[r]))
	}
	return strings.Join(parts, " ")
}

// ArtifactRef ties a run's reports back to the depot artifact that
// produced them, so a report can be explained offline: GetProv on
// Key names the producer, checker version, inputs and cost.
type ArtifactRef struct {
	// Task is the scheduler task that loaded or computed the
	// artifact.
	Task string
	// Key addresses the artifact (and its provenance sidecar).
	Key depot.Key
	// Decision is the task's cache decision this run.
	Decision string
}

// Result is the outcome of one Check call.
type Result struct {
	Reports []engine.Report
	// RefIdx is parallel to Reports: the index into Artifacts of the
	// artifact each report came from, or -1 for reports synthesized
	// outside any artifact (link errors).
	RefIdx []int
	// Artifacts lists the report-producing artifacts the run touched,
	// in assembly order.
	Artifacts []ArtifactRef
	Stats     Stats
}

// Analyzer executes requests through the scheduler with a depot
// cache. The zero value works: no cache reuse across calls (a fresh
// in-memory depot per call) and GOMAXPROCS workers.
type Analyzer struct {
	// Depot caches artifacts across calls; nil means a private
	// in-memory depot per call.
	Depot *depot.Depot
	// Workers sizes the scheduler pool; <= 0 means GOMAXPROCS.
	Workers int
	// Tracer, when non-nil, records one span per scheduled task plus a
	// span for the whole Check call.
	Tracer *obs.Tracer
	// Coverage, when non-nil, accumulates every job's dynamic coverage
	// keyed by job name. Cache hits replay the coverage stored in the
	// artifact, so the merged counts are identical warm or cold and at
	// any worker count (the set's merge is additive and commutative).
	Coverage *cover.Set
}

// runState accumulates one Check call's cache traffic.
type runState struct {
	d          *depot.Depot
	traceID    string
	mu         sync.Mutex
	hits       int
	misses     int
	decisions  map[string]int
	reanalyzed map[string]bool
	globals    int
}

// lookup resolves key for task t, identified by (checker, identity),
// and records the cache decision: counted in the run's stats and
// sched_cache_decisions_total, and set as the task's cache decision.
// A miss marks unit reanalyzed, or counts a global rerun when unit is
// "". On a miss the task's marker is rewritten to the new key, so the
// *next* run's miss (if any) can be attributed; a warm run writes
// nothing.
func (rs *runState) lookup(t *task, checker, identity, unit string, key depot.Key, v any) (bool, string) {
	ok := rs.d.GetJSON(key, v)
	reason := DecisionHit
	if !ok {
		reason = classifyMiss(rs.d, checker, identity, key)
		writeMarker(rs.d, checker, identity, key)
	}
	t.cache = reason
	decisionCounts.With(reason).Inc()
	rs.mu.Lock()
	switch {
	case ok:
		rs.hits++
	case unit == "":
		rs.misses++
		rs.globals++
	default:
		rs.misses++
		rs.reanalyzed[unit] = true
	}
	rs.decisions[reason]++
	rs.mu.Unlock()
	return ok, reason
}

// cached is every task's body: it loads key's artifact, or on a miss
// computes it and stores it with its provenance. compute also returns
// the depot keys of the artifacts it read (lane tasks name their
// summaries), or nil. The string is the task's cache decision. A
// failed write (counted in depot_put_errors_total) costs the next run
// a recompute, never this run its result.
func cached[T any](rs *runState, t *task, checker, identity, unit string, key depot.Key, compute func() (T, []string)) (*T, string) {
	v := new(T)
	ok, reason := rs.lookup(t, checker, identity, unit, key, v)
	if ok {
		return v, reason
	}
	t0 := time.Now()
	var deps []string
	*v, deps = compute()
	if rs.d.PutJSON(key, v) == nil {
		_ = rs.d.PutProv(key, &depot.Provenance{Deps: deps, Producer: localProducer,
			TraceID: rs.traceID, WallUS: time.Since(t0).Microseconds()})
	}
	return v, reason
}

// slot is one report task's result: the artifact it loaded or
// computed, and that artifact's reports. A lane job's trailing slot
// has no artifact; it holds the link errors.
type slot struct {
	ref     ArtifactRef
	reports []engine.Report
}

// report is a report task's body: it fills s from the artifact cached
// loads or computes, and replays the artifact's coverage.
func (a *Analyzer) report(rs *runState, t *task, s *slot, checker, identity, unit string, key depot.Key, compute func() (artifact, []string)) {
	art, reason := cached(rs, t, checker, identity, unit, key, compute)
	*s = slot{ref: ArtifactRef{Task: t.ID, Key: key, Decision: reason}, reports: art.Reports}
	a.recordCoverage(checker, art.Coverage)
}

// Check analyzes req.Prog with req.Jobs, reusing every artifact in
// the depot whose inputs are unchanged. The report stream is
// byte-identical between warm and cold runs.
func (a *Analyzer) Check(req Request) (*Result, error) {
	start := time.Now()
	tracer := a.Tracer
	if req.Tracer != nil {
		tracer = req.Tracer
	}
	sp := tracer.StartSpan("check", 0)
	defer sp.End()
	d := a.Depot
	if d == nil {
		d, _ = depot.Open("")
	}
	p := req.Prog
	rs := &runState{d: d, traceID: req.TraceID, reanalyzed: map[string]bool{}, decisions: map[string]int{}}

	fps, progFP := Fingerprints(p), ProgramFingerprintOf(p)
	fpByFn := make(map[string]string, len(p.Fns))
	for i, fn := range p.Fns {
		if _, ok := fpByFn[fn.Name]; !ok { // duplicates keep the first, like global.Link
			fpByFn[fn.Name] = fps[i]
		}
	}

	var handlers []string
	if req.Spec != nil {
		handlers = append(append(handlers, req.Spec.Hardware...), req.Spec.Software...)
	}
	nslots := 0
	for _, job := range req.Jobs {
		switch {
		case job.SM != nil:
			nslots += len(p.Fns)
		case job.Lanes:
			nslots += len(handlers) + 1
		default:
			nslots++
		}
	}
	var (
		// The three passes: the lane job's per-function summaries, the
		// link that joins them, then every report task — whole-program
		// tasks, then per-function and per-handler ones in job order.
		sums, link, whole, reports []*task
		// slots holds one entry per report task, in assembly order: job
		// order, then function or handler order — the order direct
		// execution produces, so warm and cold runs render identically.
		// Each task writes only its own slot, so no locking.
		slots = make([]slot, 0, nslots)
		// linkSlots maps each lane job's trailing slot to the job's name.
		linkSlots = map[int]string{}
	)
	// add appends a report task to pass and its slot to slots; the
	// task's body indexes slots only when it runs, after every slot is
	// allocated.
	add := func(pass *[]*task, id string) (*task, int) {
		t := &task{ID: id}
		*pass = append(*pass, t)
		slots = append(slots, slot{})
		return t, len(slots) - 1
	}

	// The lane pass's local half: one summary task per function. The
	// summary blob is the depot's per-function CFG artifact; it is also
	// the link input. The link joins every summary into the
	// whole-protocol call graph the per-handler lane tasks traverse.
	var (
		summaries = make([]*global.Summary, len(p.Fns))
		linked    *global.Program
		linkErrs  []error
	)
	for _, job := range req.Jobs {
		if !job.Lanes {
			continue
		}
		for i, fn := range p.Fns {
			key := depot.Key{Kind: "summary", Source: fps[i], Checker: "lanes",
				Version: job.Version, Options: job.Options}
			t := &task{ID: fmt.Sprintf("sum:%d", i)}
			t.Run = func() {
				summaries[i], _ = cached(rs, t, "lanes", "sum:"+fn.Name, fn.Name, key, func() (global.Summary, []string) {
					return *global.FromCFG(p.Graphs[i], checkers.LaneAnnotator), nil
				})
			}
			sums = append(sums, t)
		}
		link = []*task{{ID: "link", Run: func() { linked, linkErrs = global.Link(summaries) }}}
		break
	}

	for ji, job := range req.Jobs {
		switch {
		case job.SM != nil:
			for i, fn := range p.Fns {
				key := depot.Key{Kind: reportsKind, Source: fps[i], Checker: job.Name,
					Version: job.Version, Options: job.Options}
				t, si := add(&reports, fmt.Sprintf("sm:%d:%d", ji, i))
				t.Run = func() {
					a.report(rs, t, &slots[si], job.Name, "sm:"+fn.Name, fn.Name, key, func() (artifact, []string) {
						reports, cov := engine.RunCov(p.Graphs[i], job.SM)
						return mkArtifact(reports, cov), nil
					})
				}
			}

		case job.Lanes:
			for _, h := range handlers {
				t, si := add(&reports, fmt.Sprintf("lanes:%d:%s", ji, h))
				t.Run = func() {
					reach := linked.Reachable([]string{h})
					key := depot.Key{Kind: reportsKind, Source: reachFingerprint(h, reach, fpByFn),
						Checker: job.Name, Version: job.Version, Options: job.Options}
					a.report(rs, t, &slots[si], job.Name, "lanes:"+h, h, key, func() (artifact, []string) {
						got, cov := checkers.CheckHandler(linked, req.Spec, h)
						return mkArtifact(got, cov), summaryDepKeys(reach, fpByFn, job.Version, job.Options)
					})
				}
			}
			linkSlots[len(slots)] = job.Name
			slots = append(slots, slot{})

		case job.Run != nil || job.RunCov != nil:
			key := depot.Key{Kind: reportsKind, Source: progFP, Checker: job.Name,
				Version: job.Version, Options: job.Options}
			t, si := add(&whole, fmt.Sprintf("glob:%d", ji))
			t.Run = func() {
				a.report(rs, t, &slots[si], job.Name, "glob", "", key, func() (artifact, []string) {
					if job.RunCov != nil {
						reports, covs := job.RunCov(p)
						return mkArtifact(reports, covs...), nil
					}
					return mkArtifact(job.Run(p)), nil
				})
			}

		default:
			return nil, fmt.Errorf("sched: job %s: no SM, Run, RunCov, or Lanes", job.Name)
		}
	}

	// Whole-program tasks lead the report pass: each walks the whole
	// program, so it runs far longer than a typical per-function or
	// per-handler task, and claiming it first lets the short tasks fill
	// in around it rather than leave a worker idle at the end of the
	// pass (EXPERIMENTS.md "One pool, three passes").
	reports = append(whole, reports...)
	if err := uniqueIDs(sums, link, reports); err != nil {
		return nil, err
	}
	var stats runStats
	for _, tasks := range [][]*task{sums, link, reports} {
		stats.add(pass(a.Workers, tracer, tasks))
	}

	for si, name := range linkSlots {
		// Link runs live on every call (it is never cached), so its
		// coverage is recorded here identically on warm and cold paths.
		var cov *engine.Coverage
		slots[si].reports, cov = checkers.LinkReports(linkErrs)
		a.Coverage.Record(name, cov)
	}

	res := &Result{Artifacts: make([]ArtifactRef, 0, len(slots))}
	for _, s := range slots {
		ri := -1
		if s.ref.Task != "" {
			res.Artifacts = append(res.Artifacts, s.ref)
			ri = len(res.Artifacts) - 1
		}
		for range s.reports {
			res.RefIdx = append(res.RefIdx, ri)
		}
		res.Reports = append(res.Reports, s.reports...)
	}

	res.Stats = Stats{
		Functions:    len(p.Fns),
		Tasks:        stats.tasks,
		TaskTime:     stats.taskTime,
		Elapsed:      time.Since(start),
		QueueWait:    stats.queueWait,
		CacheHits:    rs.hits,
		CacheMisses:  rs.misses,
		GlobalReruns: rs.globals,
		Decisions:    rs.decisions,
	}
	for fn := range rs.reanalyzed {
		res.Stats.Reanalyzed = append(res.Stats.Reanalyzed, fn)
	}
	sort.Strings(res.Stats.Reanalyzed)
	return res, nil
}

// recordCoverage replays a slice of coverages into the analyzer's
// coverage set (no-op when coverage collection is off).
func (a *Analyzer) recordCoverage(checker string, covs []*engine.Coverage) {
	if a.Coverage == nil {
		return
	}
	for _, c := range covs {
		a.Coverage.Record(checker, c)
	}
}

// FlashJobs builds the job list for the built-in FLASH suite under a
// protocol spec, in checkers.All() order. SM checkers become
// per-function jobs, the lane checker becomes the inter-procedural
// job, and the rest run as whole-program passes; every job's Options
// binds the spec and the engine options its SM runs with.
func FlashJobs(spec *flash.Spec) []Job {
	return flashJobs(spec, nil)
}

// flashJobs is FlashJobs; onSM, when non-nil, also receives each SM
// job's machine with its metal declaration table and version, in job
// order, so BuildJobs reuses the one machine the job runs.
func flashJobs(spec *flash.Spec, onSM func(sm *engine.SM, decls map[string]string, version string)) []Job {
	specOpt := SpecHash(spec)
	var jobs []Job
	for _, chk := range checkers.All() {
		job := Job{Name: chk.Name(), Version: chk.Version(), Options: specOpt}
		if chk.Name() == "lanes" {
			job.Lanes = true
		} else if prov, ok := chk.(checkers.SMProvider); ok {
			sm, decls := prov.BuildSM(spec)
			job.SM = sm
			job.Options = hashStrings(specOpt, fmt.Sprintf("correlate=%v", sm.CorrelateBranches))
			if onSM != nil {
				onSM(sm, decls, job.Version)
			}
		} else {
			job.RunCov = func(p *core.Program) ([]engine.Report, []*engine.Coverage) {
				return chk.CheckCov(p, spec)
			}
		}
		jobs = append(jobs, job)
	}
	return jobs
}

// AdHocChecker is one metal checker run beside (or instead of) the
// built-in suite. Label names it in compile errors.
type AdHocChecker struct {
	Label string
	Src   string
}

// JobSet is one assembled check: the jobs to run, plus each SM's
// machine and cache version keyed by the name its reports carry
// (sm.Name, which can differ from the registry name: buffer_race runs
// the wait_for_db machine), as TriageRequest wants them. Lint lists
// every SM with its metal declaration table, in job order. Every SM
// here is the very machine its job runs: each is built once.
type JobSet struct {
	Jobs     []Job
	SMs      map[string]*engine.SM
	Versions map[string]string
	Lint     []lint.Target
}

// BuildJobs assembles the check cmd/mcheck and cmd/mcheckd run — job
// list, triage tables and lint targets together: the ad-hoc checkers
// first, in the order given, then the built-in suite when flashSuite
// is set. Job order fixes report assembly. An ad-hoc checker has no
// declared version; "adhoc-" plus its source hash takes that role in
// the depot key, so editing the source invalidates its cached results.
func BuildJobs(prog *core.Program, spec *flash.Spec, adhoc []AdHocChecker, flashSuite bool) (*JobSet, error) {
	set := &JobSet{SMs: map[string]*engine.SM{}, Versions: map[string]string{}}
	add := func(sm *engine.SM, decls map[string]string, version string) {
		set.SMs[sm.Name] = sm
		set.Versions[sm.Name] = version
		set.Lint = append(set.Lint, lint.Target{SM: sm, Decls: decls})
	}
	specOpt := SpecHash(spec)
	for _, c := range adhoc {
		mp, err := prog.CompileChecker(c.Src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Label, err)
		}
		h := sha256.Sum256([]byte(c.Src))
		version := "adhoc-" + hex.EncodeToString(h[:8])
		set.Jobs = append(set.Jobs, Job{Name: mp.Name, Version: version, Options: specOpt, SM: mp.SM})
		add(mp.SM, mp.Decls, version)
	}
	if flashSuite {
		set.Jobs = append(set.Jobs, flashJobs(spec, add)...)
	}
	return set, nil
}

// SpecHash content-addresses a protocol spec (deterministically:
// encoding/json sorts map keys).
func SpecHash(spec *flash.Spec) string {
	b, err := json.Marshal(spec)
	if err != nil {
		panic(fmt.Sprintf("sched: marshal spec: %v", err))
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// hashStrings hashes its parts with unambiguous boundaries.
func hashStrings(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}
