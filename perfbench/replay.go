package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"flashmc/internal/cc/ast"
	"flashmc/internal/cc/cpp"
	"flashmc/internal/cc/lexer"
	"flashmc/internal/cc/parser"
	"flashmc/internal/cc/sem"
	"flashmc/internal/cc/token"
	"flashmc/internal/cc/types"
	"flashmc/internal/cfg"
	"flashmc/internal/checkers"
	"flashmc/internal/core"
	"flashmc/internal/depot"
	"flashmc/internal/engine"
	"flashmc/internal/flash"
	"flashmc/internal/flashgen"
	"flashmc/internal/global"
	"flashmc/internal/lint"
	"flashmc/internal/obs"
	"flashmc/internal/sched"
)

// The traced run replays a request on one goroutine as the sequence of
// public layer calls the pipeline makes, with a span around each call.
// Every span inside the request belongs to exactly one layer; the
// request's wall time minus the layers' summed self time is the
// residual (orchestration, key hashing, report assembly, and the
// tracer's own reads).
const (
	lCpp = iota
	lLexer
	lParser
	lSem
	lCfg
	lFingerprint
	lEngine
	lGlobal
	lLaneSummary
	lLaneLink
	lLaneCheck
	lDepotGet
	lDepotPut
	lTriage
	nLayers
)

// layers names each layer's spans and its self-time metric.
var layers = [nLayers]struct{ span, metric string }{
	{"cpp", "cpp.ms"}, {"lexer", "lexer.ms"}, {"parser", "parser.ms"}, {"sem", "sem.ms"},
	{"cfg", "cfg.ms"}, {"sched.fingerprint", "sched.fingerprint_ms"}, {"engine", "engine.ms"},
	{"checkers.global", "checkers.global_ms"}, {"lanes.summary", "lanes.summary_ms"},
	{"lanes.link", "lanes.link_ms"}, {"lanes.check", "lanes.check_ms"},
	{"depot.get", "depot.get_ms"}, {"depot.put", "depot.put_ms"}, {"triage", "triage.ms"},
}

// Depot key kinds and payloads the pipeline writes. They restate the
// sched package's formats so the replay reads and writes the same
// artifacts; the faithfulness checks compare hit counts and artifact
// keys with the real pipeline, so a drift fails the run.
const (
	reportsKind  = "reports/v3"
	triageKind   = "triage/v1"
	taskLastKind = "tasklast/v1"
)

type artifact struct {
	Reports  []engine.Report    `json:"reports"`
	Coverage []*engine.Coverage `json:"coverage,omitempty"`
}

func mkArtifact(reports []engine.Report, covs ...*engine.Coverage) artifact {
	a := artifact{Reports: reports}
	for _, c := range covs {
		if !c.Empty() {
			a.Coverage = append(a.Coverage, c)
		}
	}
	return a
}

type taskMarker struct {
	Source  string `json:"source"`
	Version string `json:"version"`
	Options string `json:"options"`
	KeyID   string `json:"key_id"`
}

type triageVerdict struct {
	Rule       string          `json:"rule,omitempty"`
	Fn         string          `json:"fn,omitempty"`
	Pos        token.Pos       `json:"pos"`
	Msg        string          `json:"msg"`
	Confidence lint.Confidence `json:"confidence"`
	Reason     string          `json:"reason"`
}

type triageArtifact struct {
	Verdicts []triageVerdict `json:"verdicts"`
}

var producer = fmt.Sprintf("pid:%d", os.Getpid())

// counters the replay reads at span boundaries.
var (
	cConfigs = obs.Default.Counter("engine_configs_explored_total", "")
	cVisits  = obs.Default.Counter("engine_node_visits_total", "")
	cEvals   = obs.Default.Counter("engine_pattern_evals_total", "")
	cRules   = obs.Default.Counter("engine_rules_fired_total", "")
	cHits    = obs.Default.Counter("depot_hits_total", "")
	cMisses  = obs.Default.Counter("depot_misses_total", "")
	cPuts    = obs.Default.Counter("depot_puts_total", "")
	cSym     = []*obs.Counter{
		obs.Default.Counter("sym_paths_refuted_total", ""),
		obs.Default.Counter("sym_paths_feasible_total", ""),
		obs.Default.Counter("sym_paths_undecided_total", ""),
	}
)

func symPaths() float64 {
	t := 0.0
	for _, c := range cSym {
		t += c.Value()
	}
	return t
}

// span is one recorded layer call.
type span struct {
	layer  int8
	req    int32
	start  time.Duration // since the tracer's epoch
	dur    time.Duration
	allocs uint64
}

// tracer records spans in memory; the run writes them out at the end.
type tracer struct {
	epoch   time.Time
	spans   []span
	samples []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), samples: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}}
}

// allocs is the process's cumulative heap allocation count. Unlike
// runtime.ReadMemStats it does not stop the world, so it can be read at
// every span boundary; the price is that it lags allocations still
// cached per P, a few percent of a short span's count.
func (t *tracer) allocs() uint64 {
	metrics.Read(t.samples)
	return t.samples[0].Value.Uint64() + t.samples[1].Value.Uint64()
}

// layerTotals is one traced request's per-layer self time and
// allocation count.
type layerTotals struct {
	self   [nLayers]time.Duration
	allocs [nLayers]uint64
}

// replayer replays one request against one depot.
type replayer struct {
	tr  *tracer
	req int32
	d   *depot.Depot
	tot layerTotals

	// Work counts of this request.
	tokens, nodes            int
	engine                   [4]float64 // configs, node visits, pattern evals, rules fired
	putBytes                 int64      // excluding provenance sidecars
	lookups, lookupHits      int        // task artifact lookups, as Result.Stats counts them
	triageHits, triageMisses int

	// jobs are the request's FlashJobs; keys lists the report-producing
	// artifacts in assembly order, to compare with Result.Artifacts.
	jobs []sched.Job
	keys []depot.Key
	// seq holds, per function index, the sequential engine's artifact
	// for every SM job that missed (the fused comparison's reference).
	seq map[int]map[int]artifact
}

func (r *replayer) span(layer int, f func()) {
	a0 := r.tr.allocs()
	s := time.Now()
	f()
	d := time.Since(s)
	a := r.tr.allocs() - a0
	r.tot.self[layer] += d
	r.tot.allocs[layer] += a
	r.tr.spans = append(r.tr.spans, span{layer: int8(layer), req: r.req, start: s.Sub(r.tr.epoch), dur: d, allocs: a})
}

func (r *replayer) engineSpan(f func()) {
	e0 := [4]float64{cConfigs.Value(), cVisits.Value(), cEvals.Value(), cRules.Value()}
	r.span(lEngine, f)
	e1 := [4]float64{cConfigs.Value(), cVisits.Value(), cEvals.Value(), cRules.Value()}
	for i := range e0 {
		r.engine[i] += e1[i] - e0[i]
	}
}

func (r *replayer) get(key depot.Key, v any) bool {
	var ok bool
	r.span(lDepotGet, func() { ok = r.d.GetJSON(key, v) })
	return ok
}

func (r *replayer) put(key depot.Key, v any) error {
	var err error
	n := 0
	r.span(lDepotPut, func() {
		var b []byte
		if b, err = json.Marshal(v); err == nil {
			n = len(b)
			err = r.d.Put(key, b)
		}
	})
	r.putBytes += int64(n)
	return err
}

// putProv writes a provenance sidecar. Its bytes are not counted in
// putBytes: the wall-time and pid fields vary from run to run.
func (r *replayer) putProv(key depot.Key, p *depot.Provenance) {
	r.span(lDepotPut, func() { _ = r.d.PutProv(key, p) })
}

// lookup is the pipeline's cache lookup: a hit loads the artifact; a
// miss reads the task's marker (to classify the miss) and rewrites it.
func (r *replayer) lookup(checker, identity string, key depot.Key, v any) bool {
	r.lookups++
	if r.get(key, v) {
		r.lookupHits++
		return true
	}
	mk := depot.Key{Kind: taskLastKind, Checker: checker, Options: identity}
	var m taskMarker
	r.get(mk, &m)
	_ = r.put(mk, taskMarker{Source: key.Source, Version: key.Version, Options: key.Options, KeyID: key.ID()})
	return false
}

func (r *replayer) noteSeq(fn, job int, a artifact) {
	if r.seq[fn] == nil {
		r.seq[fn] = map[int]artifact{}
	}
	r.seq[fn][job] = a
}

// request replays one check of g's files and returns the sorted ranked
// stream and the loaded program.
func (r *replayer) request(g *flashgen.Protocol, files map[string]string) ([]lint.RankedReport, *core.Program, error) {
	src := source(files)
	spec := g.Spec

	// Frontend, in core.Load's order: per translation unit cpp → lexer
	// → parser → sem, then one CFG per function definition.
	prog := &core.Program{Name: g.Name, Env: sem.NewEnv()}
	checker := sem.NewChecker(prog.Env)
	var carried map[string]types.Type
	for _, rf := range g.RootFiles {
		var text string
		r.span(lCpp, func() {
			pp := cpp.New(src)
			text = pp.Process(rf)
			for _, e := range pp.Errors() {
				prog.ParseErrors = append(prog.ParseErrors, e)
			}
			if raw, err := src.ReadFile(rf); err == nil {
				prog.SourceLOC += countLOC(raw)
			}
		})
		var toks []token.Token
		r.span(lLexer, func() {
			lx := lexer.New(rf, text)
			toks = lx.All()
			for _, e := range lx.Errors() {
				prog.ParseErrors = append(prog.ParseErrors, e)
			}
		})
		r.tokens += len(toks)
		var f *ast.File
		r.span(lParser, func() {
			cp := parser.New(toks, parser.Config{Typedefs: carried})
			f = cp.File(rf)
			for _, e := range cp.Errors() {
				prog.ParseErrors = append(prog.ParseErrors, e)
			}
			carried = cp.Typedefs()
			for k, v := range cp.EnumConsts() {
				prog.Env.EnumConsts[k] = v
			}
		})
		r.span(lSem, func() { checker.Check(f) })
		prog.Files = append(prog.Files, f)
	}
	prog.Warnings = checker.Warnings()
	r.span(lCfg, func() {
		for _, f := range prog.Files {
			for _, fn := range f.Funcs() {
				prog.Fns = append(prog.Fns, fn)
				prog.Graphs = append(prog.Graphs, cfg.Build(fn))
			}
		}
	})
	if len(prog.ParseErrors) > 0 {
		return nil, nil, fmt.Errorf("load %s: %v", g.Name, prog.ParseErrors[0])
	}
	graphOf := map[string]*cfg.Graph{} // core.Program.Graph: the last definition wins
	for i, fn := range prog.Fns {
		graphOf[fn.Name] = prog.Graphs[i]
		r.nodes += len(prog.Graphs[i].Nodes)
	}

	sms, versions := triageTables(spec)
	jobs := sched.FlashJobs(spec)
	r.jobs = jobs

	// Analyzer.Check.
	var fps []string
	var progFP string
	r.span(lFingerprint, func() {
		fps = sched.Fingerprints(prog)
		progFP = sched.ProgramFingerprint(prog, fps)
	})
	fpByFn := make(map[string]string, len(prog.Fns))
	for i, fn := range prog.Fns {
		if _, ok := fpByFn[fn.Name]; !ok {
			fpByFn[fn.Name] = fps[i]
		}
	}

	// Lane pass, local half: one summary per function, then the link.
	var lanesJob *sched.Job
	for i := range jobs {
		if jobs[i].Lanes {
			lanesJob = &jobs[i]
			break
		}
	}
	var linked *global.Program
	var linkErrs []error
	if lanesJob != nil {
		summaries := make([]*global.Summary, len(prog.Fns))
		for i, fn := range prog.Fns {
			key := depot.Key{Kind: "summary", Source: fps[i], Checker: "lanes",
				Version: lanesJob.Version, Options: lanesJob.Options}
			var s global.Summary
			if r.lookup("lanes", "sum:"+fn.Name, key, &s) {
				summaries[i] = &s
				continue
			}
			t0 := time.Now()
			r.span(lLaneSummary, func() { summaries[i] = global.FromCFG(prog.Graphs[i], checkers.LaneAnnotator) })
			if err := r.put(key, summaries[i]); err != nil {
				return nil, nil, err
			}
			r.putProv(key, &depot.Provenance{Producer: producer, WallUS: time.Since(t0).Microseconds()})
		}
		r.span(lLaneLink, func() { linked, linkErrs = global.Link(summaries) })
	}

	var reports []engine.Report
	for ji, job := range jobs {
		switch {
		case job.SM != nil:
			for i, fn := range prog.Fns {
				key := depot.Key{Kind: reportsKind, Source: fps[i], Checker: job.Name,
					Version: job.Version, Options: job.Options}
				r.keys = append(r.keys, key)
				var cached artifact
				if r.lookup(job.Name, "sm:"+fn.Name, key, &cached) {
					reports = append(reports, cached.Reports...)
					continue
				}
				t0 := time.Now()
				var got []engine.Report
				var cov *engine.Coverage
				r.engineSpan(func() { got, cov = engine.RunCov(prog.Graphs[i], job.SM) })
				art := mkArtifact(got, cov)
				r.noteSeq(i, ji, art)
				reports = append(reports, got...)
				if err := r.put(key, art); err != nil {
					return nil, nil, err
				}
				r.putProv(key, &depot.Provenance{Producer: producer, WallUS: time.Since(t0).Microseconds()})
			}

		case job.Lanes:
			handlers := append(append([]string{}, spec.Hardware...), spec.Software...)
			for _, h := range handlers {
				var reach map[string]bool
				var key depot.Key
				r.span(lLaneCheck, func() {
					reach = linked.Reachable([]string{h})
					key = depot.Key{Kind: reportsKind, Source: reachFingerprint(h, reach, fpByFn),
						Checker: job.Name, Version: job.Version, Options: job.Options}
				})
				r.keys = append(r.keys, key)
				var cached artifact
				if r.lookup(job.Name, "lanes:"+h, key, &cached) {
					reports = append(reports, cached.Reports...)
					continue
				}
				one := &flash.Spec{Hardware: []string{h}, Allowance: allowance(spec)}
				t0 := time.Now()
				var got []engine.Report
				var cov *engine.Coverage
				var deps []string
				r.span(lLaneCheck, func() {
					got, cov = checkers.CheckLanesCov(linked, one)
					deps = summaryDepKeys(reach, fpByFn, job.Version, job.Options)
				})
				reports = append(reports, got...)
				if err := r.put(key, mkArtifact(got, cov)); err != nil {
					return nil, nil, err
				}
				r.putProv(key, &depot.Provenance{Deps: deps, Producer: producer,
					WallUS: time.Since(t0).Microseconds()})
			}
			for _, e := range linkErrs {
				reports = append(reports, engine.Report{SM: job.Name, Rule: "link", Msg: e.Error(),
					Trace: engine.Witness(token.Pos{}, "link", e.Error())})
			}

		case job.Run != nil || job.RunCov != nil:
			key := depot.Key{Kind: reportsKind, Source: progFP, Checker: job.Name,
				Version: job.Version, Options: job.Options}
			r.keys = append(r.keys, key)
			var cached artifact
			if r.lookup(job.Name, "glob", key, &cached) {
				reports = append(reports, cached.Reports...)
				continue
			}
			t0 := time.Now()
			var got []engine.Report
			var covs []*engine.Coverage
			r.span(lGlobal, func() {
				if job.RunCov != nil {
					got, covs = job.RunCov(prog)
				} else {
					got = job.Run(prog)
				}
			})
			reports = append(reports, got...)
			if err := r.put(key, mkArtifact(got, covs...)); err != nil {
				return nil, nil, err
			}
			r.putProv(key, &depot.Provenance{Producer: producer, WallUS: time.Since(t0).Microseconds()})
		}
	}

	// Analyzer.TriageReports, called without a program fingerprint as
	// mcheck calls it, so it walks the fingerprints again.
	var triageFP string
	r.span(lFingerprint, func() { triageFP = sched.ProgramFingerprint(prog, sched.Fingerprints(prog)) })
	var order []string
	byChecker := map[string][]engine.Report{}
	for _, rep := range reports {
		if _, ok := byChecker[rep.SM]; !ok {
			order = append(order, rep.SM)
		}
		byChecker[rep.SM] = append(byChecker[rep.SM], rep)
	}
	ranked := make([]lint.RankedReport, 0, len(reports))
	for _, name := range order {
		group := byChecker[name]
		sm := sms[name]
		if sm == nil {
			ranked = append(ranked, lint.PassThrough(group, lint.ReasonGlobalPass)...)
			continue
		}
		key := depot.Key{Kind: triageKind, Source: triageFP, Checker: name,
			Version: hashStrings(versions[name], lint.TriageVersion), Options: triageOptions.Fingerprint()}
		var art triageArtifact
		if r.get(key, &art) && verdictsMatch(art.Verdicts, group) {
			r.triageHits++
			for i, rep := range group {
				ranked = append(ranked, lint.RankedReport{Report: rep,
					Confidence: art.Verdicts[i].Confidence, Reason: art.Verdicts[i].Reason})
			}
			continue
		}
		r.triageMisses++
		var got []lint.RankedReport
		r.span(lTriage, func() { got = triageProgram(graphOf, sm, group) })
		art.Verdicts = art.Verdicts[:0]
		for _, rr := range got {
			art.Verdicts = append(art.Verdicts, triageVerdict{Rule: rr.Rule, Fn: rr.Fn, Pos: rr.Pos,
				Msg: rr.Msg, Confidence: rr.Confidence, Reason: rr.Reason})
		}
		_ = r.put(key, art)
		ranked = append(ranked, got...)
	}
	r.span(lTriage, func() { lint.SortRanked(ranked) })
	return ranked, prog, nil
}

// triageProgram is lint.TriageProgram over a graph table (the replay's
// program has no name index of its own).
func triageProgram(graphOf map[string]*cfg.Graph, sm *engine.SM, reports []engine.Report) []lint.RankedReport {
	out := make([]lint.RankedReport, 0, len(reports))
	for _, rep := range reports {
		g := graphOf[rep.Fn]
		if g == nil {
			out = append(out, lint.RankedReport{Report: rep, Confidence: lint.Certain, Reason: lint.ReasonFnNotFound})
			continue
		}
		out = append(out, lint.TriageSM(g, sm, []engine.Report{rep}, triageOptions)...)
	}
	return out
}

// fusedCheck runs every function whose SM jobs missed through the
// fused product automaton and compares each member's reports and
// coverage with the sequential engine's. It returns the fused walk's
// time and allocations and every mismatch.
func (r *replayer) fusedCheck(prog *core.Program) (time.Duration, uint64, []string) {
	jobs := r.jobs
	var smJobs []int
	var members []*engine.SM
	for ji, j := range jobs {
		if j.SM != nil {
			smJobs = append(smJobs, ji)
			members = append(members, j.SM)
		}
	}
	f := engine.CompileFused(members...)
	fns := make([]int, 0, len(r.seq))
	for i := range r.seq {
		fns = append(fns, i)
	}
	sort.Ints(fns)
	var total time.Duration
	var allocs uint64
	var bad []string
	for _, i := range fns {
		active := make([]bool, len(smJobs))
		for m, ji := range smJobs {
			_, active[m] = r.seq[i][ji]
		}
		a0 := r.tr.allocs()
		t0 := time.Now()
		reps, covs := f.RunCov(prog.Graphs[i], active)
		total += time.Since(t0)
		allocs += r.tr.allocs() - a0
		for m, ji := range smJobs {
			if !active[m] {
				continue
			}
			want, _ := json.Marshal(r.seq[i][ji])
			got, _ := json.Marshal(mkArtifact(reps[m], covs[m]))
			if string(got) != string(want) {
				bad = append(bad, fmt.Sprintf("%s %s: fused output differs from sequential",
					prog.Fns[i].Name, jobs[ji].Name))
			}
		}
	}
	return total, allocs, bad
}

// The helpers below restate the sched and core internals the replay
// needs to address the same artifacts.

func countLOC(src string) int {
	n := 0
	for _, ln := range strings.Split(src, "\n") {
		if strings.TrimSpace(ln) != "" {
			n++
		}
	}
	return n
}

func allowance(spec *flash.Spec) map[string]flash.LaneVector {
	if spec == nil || spec.Allowance == nil {
		return map[string]flash.LaneVector{}
	}
	return spec.Allowance
}

func hashStrings(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func reachFingerprint(handler string, reach map[string]bool, fpByFn map[string]string) string {
	fns := make([]string, 0, len(reach))
	for fn := range reach {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	h := sha256.New()
	io.WriteString(h, handler)
	io.WriteString(h, "\x00")
	for _, fn := range fns {
		io.WriteString(h, fn)
		io.WriteString(h, "\x00")
		io.WriteString(h, fpByFn[fn])
		io.WriteString(h, "\x00")
	}
	return hex.EncodeToString(h.Sum(nil))
}

func summaryDepKeys(reach map[string]bool, fpByFn map[string]string, version, options string) []string {
	var deps []string
	for fn := range reach {
		fp, ok := fpByFn[fn]
		if !ok {
			continue
		}
		deps = append(deps, depot.Key{Kind: "summary", Source: fp, Checker: "lanes",
			Version: version, Options: options}.ID())
	}
	sort.Strings(deps)
	return deps
}

func verdictsMatch(vs []triageVerdict, group []engine.Report) bool {
	if len(vs) != len(group) {
		return false
	}
	for i, r := range group {
		v := vs[i]
		if v.Rule != r.Rule || v.Fn != r.Fn || v.Pos != r.Pos || v.Msg != r.Msg {
			return false
		}
	}
	return true
}
