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

	"flashmc/internal/cc/token"
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

// Job is one checker to run over a program. Exactly one of SM, Run,
// or Lanes is set:
//
//   - SM jobs run a state machine per function, cached per function;
//   - Run jobs are whole-program passes, cached per program;
//   - the Lanes job is the §7 inter-procedural pass, decomposed into
//     per-function summary tasks, a link barrier, and per-handler
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
	// Run is a whole-program pass. RunCov, when set, is preferred: it
	// also returns the pass's dynamic coverage (FlashJobs wires it for
	// checkers implementing checkers.CoverageProvider).
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
	// Tasks, MaxQueueDepth and TaskTime come from the scheduler run.
	Tasks         int
	MaxQueueDepth int
	TaskTime      time.Duration
	// Elapsed is the wall time of the whole Check call.
	Elapsed time.Duration
	// QueueWait is the summed time tasks spent ready but unclaimed.
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
	mu         sync.Mutex
	hits       int
	misses     int
	decisions  map[string]int
	reanalyzed map[string]bool
	globals    int
}

// lookup resolves key for task t, identified by (checker, identity),
// and records the cache decision: counted in the run's stats and
// sched_cache_decisions_total, and annotated on the task's trace span.
// On a miss the task's marker is rewritten to the new key, so the
// *next* run's miss (if any) can be attributed; a warm run writes
// nothing.
func (rs *runState) lookup(t *Task, checker, identity string, key depot.Key, v any) (bool, string) {
	ok := rs.d.GetJSON(key, v)
	reason := DecisionHit
	if !ok {
		reason = classifyMiss(rs.d, checker, identity, key)
		writeMarker(rs.d, checker, identity, key)
	}
	t.Annotate("cache", reason)
	decisionCounts.With(reason).Inc()
	rs.mu.Lock()
	if ok {
		rs.hits++
	} else {
		rs.misses++
	}
	rs.decisions[reason]++
	rs.mu.Unlock()
	return ok, reason
}

func (rs *runState) markFn(name string) {
	rs.mu.Lock()
	rs.reanalyzed[name] = true
	rs.mu.Unlock()
}

func (rs *runState) markGlobal() {
	rs.mu.Lock()
	rs.globals++
	rs.mu.Unlock()
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
	rs := &runState{d: d, reanalyzed: map[string]bool{}, decisions: map[string]int{}}

	fps, progFP := Fingerprints(p), ProgramFingerprintOf(p)
	fpByFn := make(map[string]string, len(p.Fns))
	for i, fn := range p.Fns {
		if _, ok := fpByFn[fn.Name]; !ok { // duplicates keep the first, like global.Link
			fpByFn[fn.Name] = fps[i]
		}
	}

	needLanes := false
	for _, j := range req.Jobs {
		if j.Lanes {
			needLanes = true
		}
	}

	var tasks []*Task

	// Per-function summary tasks (the lane pass's local half). The
	// summary blob is the depot's per-function CFG artifact; it is
	// also reused as the link input.
	summaries := make([]*global.Summary, len(p.Fns))
	var sumIDs []string
	lanesVersion, lanesOptions := "", ""
	if needLanes {
		for _, j := range req.Jobs {
			if j.Lanes {
				lanesVersion, lanesOptions = j.Version, j.Options
				break
			}
		}
		for i := range p.Fns {
			i := i
			id := fmt.Sprintf("sum:%d", i)
			sumIDs = append(sumIDs, id)
			key := depot.Key{Kind: "summary", Source: fps[i], Checker: "lanes",
				Version: lanesVersion, Options: lanesOptions}
			t := &Task{ID: id}
			t.Run = func() error {
				var s global.Summary
				if ok, _ := rs.lookup(t, "lanes", "sum:"+p.Fns[i].Name, key, &s); ok {
					summaries[i] = &s
					return nil
				}
				rs.markFn(p.Fns[i].Name)
				t0 := time.Now()
				summaries[i] = global.FromCFG(p.Graphs[i], checkers.LaneAnnotator)
				if err := d.PutJSON(key, summaries[i]); err != nil {
					return err
				}
				_ = d.PutProv(key, &depot.Provenance{Producer: localProducer,
					TraceID: req.TraceID, WallUS: time.Since(t0).Microseconds()})
				return nil
			}
			tasks = append(tasks, t)
		}
	}

	// The link barrier joins every summary into the whole-protocol
	// call graph; per-handler lane tasks wait on it.
	var (
		linked   *global.Program
		linkErrs []error
	)
	if needLanes {
		tasks = append(tasks, &Task{ID: "link", Deps: sumIDs, Run: func() error {
			linked, linkErrs = global.Link(summaries)
			return nil
		}})
	}

	// Per-job result slots, assembled in job order after the run. The
	// ref slots record which artifact each slot's reports came from
	// (each task writes only its own index, so no locking).
	smResults := make([][][]engine.Report, len(req.Jobs))
	globalResults := make([][]engine.Report, len(req.Jobs))
	laneResults := make([]*laneSlot, len(req.Jobs))
	smRefs := make([][]ArtifactRef, len(req.Jobs))
	globalRefs := make([]ArtifactRef, len(req.Jobs))

	for ji, job := range req.Jobs {
		ji, job := ji, job
		switch {
		case job.SM != nil:
			smResults[ji] = make([][]engine.Report, len(p.Fns))
			smRefs[ji] = make([]ArtifactRef, len(p.Fns))
			for i := range p.Fns {
				i := i
				key := depot.Key{Kind: reportsKind, Source: fps[i], Checker: job.Name,
					Version: job.Version, Options: job.Options}
				id := fmt.Sprintf("sm:%d:%d", ji, i)
				t := &Task{ID: id}
				t.Run = func() error {
					var cached artifact
					ok, reason := rs.lookup(t, job.Name, "sm:"+p.Fns[i].Name, key, &cached)
					smRefs[ji][i] = ArtifactRef{Task: id, Key: key, Decision: reason}
					if ok {
						smResults[ji][i] = cached.Reports
						a.recordCoverage(job.Name, cached.Coverage)
						return nil
					}
					rs.markFn(p.Fns[i].Name)
					t0 := time.Now()
					reports, cov := engine.RunCov(p.Graphs[i], job.SM)
					smResults[ji][i] = reports
					art := mkArtifact(reports, cov)
					a.recordCoverage(job.Name, art.Coverage)
					if err := d.PutJSON(key, art); err != nil {
						return err
					}
					_ = d.PutProv(key, &depot.Provenance{Producer: localProducer,
						TraceID: req.TraceID, WallUS: time.Since(t0).Microseconds()})
					return nil
				}
				tasks = append(tasks, t)
			}

		case job.Lanes:
			slot := &laneSlot{reports: map[string][]engine.Report{}}
			if req.Spec != nil {
				slot.handlers = append(append([]string{}, req.Spec.Hardware...), req.Spec.Software...)
			}
			laneResults[ji] = slot
			for _, h := range slot.handlers {
				h := h
				id := fmt.Sprintf("lanes:%d:%s", ji, h)
				t := &Task{ID: id, Deps: []string{"link"}}
				t.Run = func() error {
					reach := linked.Reachable([]string{h})
					key := depot.Key{Kind: reportsKind,
						Source:  reachFingerprint(h, reach, fpByFn),
						Checker: job.Name, Version: job.Version, Options: job.Options}
					var cached artifact
					ok, reason := rs.lookup(t, job.Name, "lanes:"+h, key, &cached)
					slot.setRef(h, ArtifactRef{Task: id, Key: key, Decision: reason})
					if ok {
						slot.set(h, cached.Reports)
						a.recordCoverage(job.Name, cached.Coverage)
						return nil
					}
					rs.markFn(h)
					one := &flash.Spec{Hardware: []string{h}, Allowance: specAllowance(req.Spec)}
					t0 := time.Now()
					got, cov := checkers.CheckLanesCov(linked, one)
					slot.set(h, got)
					art := mkArtifact(got, cov)
					a.recordCoverage(job.Name, art.Coverage)
					if err := d.PutJSON(key, art); err != nil {
						return err
					}
					_ = d.PutProv(key, &depot.Provenance{
						Deps:     summaryDepKeys(reach, fpByFn, job.Version, job.Options),
						Producer: localProducer, TraceID: req.TraceID,
						WallUS: time.Since(t0).Microseconds()})
					return nil
				}
				tasks = append(tasks, t)
			}

		case job.Run != nil || job.RunCov != nil:
			key := depot.Key{Kind: reportsKind, Source: progFP, Checker: job.Name,
				Version: job.Version, Options: job.Options}
			id := fmt.Sprintf("glob:%d", ji)
			t := &Task{ID: id}
			t.Run = func() error {
				var cached artifact
				ok, reason := rs.lookup(t, job.Name, "glob", key, &cached)
				globalRefs[ji] = ArtifactRef{Task: id, Key: key, Decision: reason}
				if ok {
					globalResults[ji] = cached.Reports
					a.recordCoverage(job.Name, cached.Coverage)
					return nil
				}
				rs.markGlobal()
				t0 := time.Now()
				var covs []*engine.Coverage
				if job.RunCov != nil {
					globalResults[ji], covs = job.RunCov(p)
				} else {
					globalResults[ji] = job.Run(p)
				}
				art := mkArtifact(globalResults[ji], covs...)
				a.recordCoverage(job.Name, art.Coverage)
				if err := d.PutJSON(key, art); err != nil {
					return err
				}
				_ = d.PutProv(key, &depot.Provenance{Producer: localProducer,
					TraceID: req.TraceID, WallUS: time.Since(t0).Microseconds()})
				return nil
			}
			tasks = append(tasks, t)

		default:
			return nil, fmt.Errorf("sched: job %s: no SM, Run, RunCov, or Lanes", job.Name)
		}
	}

	stats, err := RunTraced(a.Workers, tracer, tasks)
	if err != nil {
		return nil, err
	}

	// Assemble in job order, within a job in function/handler order:
	// the same order direct execution produces, so warm and cold runs
	// render identically.
	res := &Result{}
	addFrom := func(ref ArtifactRef, reps []engine.Report) {
		res.Artifacts = append(res.Artifacts, ref)
		for range reps {
			res.RefIdx = append(res.RefIdx, len(res.Artifacts)-1)
		}
		res.Reports = append(res.Reports, reps...)
	}
	for ji, job := range req.Jobs {
		switch {
		case job.SM != nil:
			for i, reps := range smResults[ji] {
				addFrom(smRefs[ji][i], reps)
			}
		case job.Lanes:
			slot := laneResults[ji]
			for _, h := range slot.handlers {
				addFrom(slot.refs[h], slot.reports[h])
			}
			for _, e := range linkErrs {
				res.Reports = append(res.Reports, engine.Report{SM: job.Name, Rule: "link", Msg: e.Error(),
					Trace: engine.Witness(token.Pos{}, "link", e.Error())})
				res.RefIdx = append(res.RefIdx, -1)
			}
			// Link runs live on every call (it is the barrier, never
			// cached), so its coverage is recorded here identically on
			// warm and cold paths.
			a.Coverage.Record(job.Name, checkers.LinkCoverage(len(linkErrs)))
		case job.Run != nil || job.RunCov != nil:
			addFrom(globalRefs[ji], globalResults[ji])
		}
	}

	res.Stats = Stats{
		Functions:     len(p.Fns),
		Tasks:         stats.Tasks,
		MaxQueueDepth: stats.MaxQueueDepth,
		TaskTime:      stats.TaskTime,
		Elapsed:       time.Since(start),
		QueueWait:     stats.QueueWait,
		CacheHits:     rs.hits,
		CacheMisses:   rs.misses,
		GlobalReruns:  rs.globals,
		Decisions:     rs.decisions,
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

// laneSlot collects one lane job's per-handler reports and artifact
// refs; tasks write concurrently.
type laneSlot struct {
	l        sync.Mutex
	handlers []string
	reports  map[string][]engine.Report
	refs     map[string]ArtifactRef
}

func (s *laneSlot) set(h string, r []engine.Report) {
	s.l.Lock()
	s.reports[h] = r
	s.l.Unlock()
}

func (s *laneSlot) setRef(h string, ref ArtifactRef) {
	s.l.Lock()
	if s.refs == nil {
		s.refs = map[string]ArtifactRef{}
	}
	s.refs[h] = ref
	s.l.Unlock()
}

// specAllowance returns the spec's allowance table (nil spec → empty).
func specAllowance(spec *flash.Spec) map[string]flash.LaneVector {
	if spec == nil || spec.Allowance == nil {
		return map[string]flash.LaneVector{}
	}
	return spec.Allowance
}

// FlashJobs builds the job list for the built-in FLASH suite under a
// protocol spec, in checkers.All() order. SM checkers become
// per-function jobs, the lane checker becomes the inter-procedural
// job, and the rest run as whole-program passes; every job's Options
// binds the spec and the engine options its SM runs with.
func FlashJobs(spec *flash.Spec) []Job {
	specOpt := SpecHash(spec)
	var jobs []Job
	for _, chk := range checkers.All() {
		job := Job{Name: chk.Name(), Version: chk.Version(), Options: specOpt}
		if chk.Name() == "lanes" {
			job.Lanes = true
		} else if prov, ok := chk.(checkers.SMProvider); ok {
			sm, _ := prov.BuildSM(spec)
			job.SM = sm
			job.Options = hashStrings(specOpt, fmt.Sprintf("correlate=%v", sm.CorrelateBranches))
		} else {
			chk := chk
			job.Run = func(p *core.Program) []engine.Report { return chk.Check(p, spec) }
			if prov, ok := chk.(checkers.CoverageProvider); ok {
				job.RunCov = func(p *core.Program) ([]engine.Report, []*engine.Coverage) {
					return prov.CheckCov(p, spec)
				}
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
// every SM with its metal declaration table, in job order.
type JobSet struct {
	Jobs     []Job
	SMs      map[string]*engine.SM
	Versions map[string]string
	Lint     []lint.Target
}

// BuildJobs assembles the jobs cmd/mcheck and cmd/mcheckd run: the
// ad-hoc checkers first, in the order given, then the built-in suite
// when flashSuite is set. Job order fixes report assembly. An ad-hoc
// checker has no declared version; "adhoc-" plus its source hash takes
// that role in the depot key, so editing the source invalidates its
// cached results.
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
		set.Jobs = append(set.Jobs, FlashJobs(spec)...)
		for _, chk := range checkers.All() {
			if prov, ok := chk.(checkers.SMProvider); ok {
				sm, decls := prov.BuildSM(spec)
				add(sm, decls, chk.Version())
			}
		}
	}
	return set, nil
}

// ConventionSpec derives a protocol spec from the h_*/sw_* naming
// convention, for checking code without an explicit specification
// (cmd/mcheck and cmd/mcheckd both run under it).
func ConventionSpec(prog *core.Program) *flash.Spec {
	spec := &flash.Spec{
		Protocol:        "cli",
		Allowance:       map[string]flash.LaneVector{},
		NoStack:         map[string]bool{},
		BufferFreeFns:   map[string]bool{},
		BufferUseFns:    map[string]bool{},
		CondFreeFns:     map[string]bool{},
		DirWritebackFns: map[string]bool{},
	}
	for _, fn := range prog.Fns {
		switch flash.ClassifyName(fn.Name) {
		case flash.HardwareHandler:
			spec.Hardware = append(spec.Hardware, fn.Name)
		case flash.SoftwareHandler:
			spec.Software = append(spec.Software, fn.Name)
		}
	}
	return spec
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
