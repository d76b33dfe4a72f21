package sched

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"flashmc/internal/cc/cpp"
	"flashmc/internal/checkers"
	"flashmc/internal/core"
	"flashmc/internal/depot"
	"flashmc/internal/engine"
	"flashmc/internal/flashgen"
	"flashmc/internal/global"
)

// testProto is small enough to load quickly but exercises every
// checker and the inter-procedural lane pass.
const testProto = "bitvector"

func loadProto(t testing.TB, mutate func(files map[string]string)) (*flashgen.Protocol, *core.Program) {
	t.Helper()
	gen := flashgen.Generate(flashgen.Options{Seed: 1})
	p := gen.Protocol(testProto)
	if p == nil {
		t.Fatalf("protocol %s not generated", testProto)
	}
	if mutate != nil {
		mutate(p.Files)
	}
	prog, err := core.Load(p.Name, p.Source(), p.RootFiles)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.ParseErrors) > 0 {
		t.Fatalf("parse errors: %v", prog.ParseErrors[0])
	}
	return p, prog
}

// render serializes reports the way cmd/mcheck prints them, for
// byte-level comparison.
func render(reports []engine.Report) []byte {
	var buf bytes.Buffer
	for _, ri := range engine.PosOrder(reports) {
		r := reports[ri]
		fmt.Fprintf(&buf, "%s: [%s] %s\n", r.Pos, r.SM, r.Msg)
	}
	return buf.Bytes()
}

// wantDecisions asserts that st attributes every cache lookup, hit or
// miss, and that every miss has the reason miss: the per-reason counts
// sum to CacheHits+CacheMisses, hits are all DecisionHit, and no other
// reason appears.
func wantDecisions(t *testing.T, st Stats, miss string) {
	t.Helper()
	sum := 0
	for _, n := range st.Decisions {
		sum += n
	}
	if sum != st.CacheHits+st.CacheMisses {
		t.Errorf("decisions %v sum to %d, want hits+misses = %d", st.Decisions, sum, st.CacheHits+st.CacheMisses)
	}
	if st.Decisions[DecisionHit] != st.CacheHits {
		t.Errorf("decisions %v: %d hits attributed, want %d", st.Decisions, st.Decisions[DecisionHit], st.CacheHits)
	}
	if st.CacheMisses > 0 && st.Decisions[miss] != st.CacheMisses {
		t.Errorf("decisions %v: want all %d misses to be %q", st.Decisions, st.CacheMisses, miss)
	}
}

func TestWarmColdByteIdentical(t *testing.T) {
	d, err := depot.Open(filepath.Join(t.TempDir(), "depot"))
	if err != nil {
		t.Fatal(err)
	}
	a := &Analyzer{Depot: d}

	p, prog := loadProto(t, nil)
	cold, err := a.Check(Request{Prog: prog, Spec: p.Spec, Jobs: FlashJobs(p.Spec)})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.CacheMisses == 0 || cold.Stats.CacheHits != 0 {
		t.Fatalf("cold stats: %+v", cold.Stats)
	}
	if len(cold.Reports) == 0 {
		t.Fatal("cold run found no reports; the corpus seeds defects")
	}
	wantDecisions(t, cold.Stats, DecisionNew)

	// A separate parse of the same sources must hit on everything.
	p2, prog2 := loadProto(t, nil)
	warm, err := a.Check(Request{Prog: prog2, Spec: p2.Spec, Jobs: FlashJobs(p2.Spec)})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.CacheMisses != 0 {
		t.Fatalf("warm run missed %d times (reanalyzed %v)", warm.Stats.CacheMisses, warm.Stats.Reanalyzed)
	}
	if len(warm.Stats.Reanalyzed) != 0 || warm.Stats.GlobalReruns != 0 {
		t.Fatalf("warm run recomputed: %+v", warm.Stats)
	}
	wantDecisions(t, warm.Stats, DecisionHit)
	if !reflect.DeepEqual(cold.Reports, warm.Reports) {
		t.Fatal("warm reports differ structurally from cold reports")
	}
	if !bytes.Equal(render(cold.Reports), render(warm.Reports)) {
		t.Fatal("warm rendering differs from cold rendering")
	}
}

// TestPipelineMatchesDirectExecution pins the pipeline's report
// stream to what running every checker directly produces.
func TestPipelineMatchesDirectExecution(t *testing.T) {
	p, prog := loadProto(t, nil)
	a := &Analyzer{} // private in-memory depot
	got, err := a.Check(Request{Prog: prog, Spec: p.Spec, Jobs: FlashJobs(p.Spec)})
	if err != nil {
		t.Fatal(err)
	}
	var want []engine.Report
	for _, chk := range checkers.All() {
		want = append(want, chk.Check(prog, p.Spec)...)
	}
	if !bytes.Equal(render(got.Reports), render(want)) {
		t.Fatalf("pipeline reports differ from direct execution:\npipeline %d reports, direct %d",
			len(got.Reports), len(want))
	}
}

// TestDuplicateHandlerLinkReport: a handler defined in two files is
// listed once by ConventionSpec, so the check runs (rather than failing
// on a duplicate task) and the lane job reports the duplicate the way
// the lane checker run directly does.
func TestDuplicateHandlerLinkReport(t *testing.T) {
	src := cpp.MapSource{"a.c": "void h_foo(void) {}\n", "b.c": "void h_foo(void) {}\n"}
	prog, err := core.Load("dup", src, []string{"a.c", "b.c"})
	if err != nil {
		t.Fatal(err)
	}
	spec := ConventionSpec(prog)
	if got := strings.Join(spec.Hardware, ","); got != "h_foo" {
		t.Fatalf("spec hardware = %q, want h_foo once", got)
	}
	res, err := (&Analyzer{}).Check(Request{Prog: prog, Spec: spec, Jobs: FlashJobs(spec)})
	if err != nil {
		t.Fatal(err)
	}
	var lanes []engine.Report
	for i, r := range res.Reports {
		if r.SM == "lanes" {
			lanes = append(lanes, r)
			if r.Rule == "link" && res.RefIdx[i] != -1 {
				t.Errorf("link report has RefIdx %d, want -1", res.RefIdx[i])
			}
		}
	}
	want := checkers.NewLanes().Check(prog, spec)
	if !reflect.DeepEqual(lanes, want) {
		t.Fatalf("pipeline lane reports %v, direct %v", lanes, want)
	}
	if len(want) != 1 || want[0].Msg != "duplicate definition of h_foo (kept a.c, dropped b.c)" {
		t.Fatalf("direct lane reports = %v, want the one duplicate-definition link report", want)
	}
}

// TestRunOnlyJob: a whole-program job with Run and no RunCov (a
// caller with no coverage to report) is cached per program like any
// other: the warm run replays its reports without calling it.
func TestRunOnlyJob(t *testing.T) {
	prog, err := core.Load("run", cpp.MapSource{"a.c": "int f(void) { return 0; }\n"}, []string{"a.c"})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	job := Job{Name: "whole", Version: "1", Run: func(p *core.Program) []engine.Report {
		calls++
		return []engine.Report{{SM: "whole", Fn: p.Fns[0].Name, Msg: "seen"}}
	}}
	store, _ := depot.Open("")
	a := &Analyzer{Depot: store}
	for i, want := range []int{1, 0} {
		res, err := a.Check(Request{Prog: prog, Jobs: []Job{job}})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Reports) != 1 || res.Reports[0].Msg != "seen" || res.RefIdx[0] != 0 {
			t.Fatalf("run %d: reports %v, RefIdx %v", i, res.Reports, res.RefIdx)
		}
		if res.Stats.GlobalReruns != want || res.Artifacts[0].Task != "glob:0" {
			t.Fatalf("run %d: %d global reruns (want %d), artifacts %v", i, res.Stats.GlobalReruns, want, res.Artifacts)
		}
	}
	if calls != 1 {
		t.Fatalf("Run called %d times, want 1 (cold only)", calls)
	}
}

// mutateOneHandler appends an empty statement to a statement line
// inside one handler's body, preserving the file's line count so no
// other function's positions move. It returns the handler's name.
func mutateOneHandler(t *testing.T, p *flashgen.Protocol, prog *core.Program) string {
	t.Helper()
	handlers := append(append([]string{}, p.Spec.Hardware...), p.Spec.Software...)
	for _, h := range handlers {
		fn := prog.Fn(h)
		if fn == nil || fn.Body == nil || fn.EndPos.Line-fn.Pos().Line < 4 {
			continue
		}
		file := fn.Pos().File
		text, ok := p.Files[file]
		if !ok {
			continue
		}
		lines := strings.Split(text, "\n")
		// Strictly inside the body: after the signature line, before
		// the closing brace.
		for i := fn.Pos().Line; i < fn.EndPos.Line-1 && i < len(lines); i++ {
			trimmed := strings.TrimSpace(lines[i])
			if strings.HasSuffix(trimmed, ";") && !strings.Contains(trimmed, "for") &&
				!strings.HasPrefix(trimmed, "//") && !strings.HasPrefix(trimmed, "*") {
				lines[i] += " ;"
				p.Files[file] = strings.Join(lines, "\n")
				return h
			}
		}
	}
	t.Fatal("no mutatable handler found")
	return ""
}

func TestInvalidationIsCallGraphPrecise(t *testing.T) {
	d, err := depot.Open(filepath.Join(t.TempDir(), "depot"))
	if err != nil {
		t.Fatal(err)
	}
	a := &Analyzer{Depot: d}

	// Cold run over the pristine corpus.
	p, prog := loadProto(t, nil)
	cold, err := a.Check(Request{Prog: prog, Spec: p.Spec, Jobs: FlashJobs(p.Spec)})
	if err != nil {
		t.Fatal(err)
	}

	// Mutate one handler (same line count) and re-check warm.
	var mutated string
	p2, prog2 := loadProto(t, func(files map[string]string) {
		// Need a loaded pristine program to locate the handler; reuse
		// the one above (same seed, same layout).
		pp := &flashgen.Protocol{Files: files, Spec: p.Spec}
		mutated = mutateOneHandler(t, pp, prog)
	})
	warm, err := a.Check(Request{Prog: prog2, Spec: p2.Spec, Jobs: FlashJobs(p2.Spec)})
	if err != nil {
		t.Fatal(err)
	}

	// Expected re-analysis set: the mutated handler plus every
	// handler whose call graph reaches it.
	linked, _ := global.Link(checkers.Summarize(prog2))
	allowed := map[string]bool{mutated: true}
	for _, h := range append(append([]string{}, p2.Spec.Hardware...), p2.Spec.Software...) {
		if linked.Reachable([]string{h})[mutated] {
			allowed[h] = true
		}
	}
	for _, fn := range warm.Stats.Reanalyzed {
		if !allowed[fn] {
			t.Errorf("function %s re-analyzed but is not the mutation or a call-graph dependent", fn)
		}
	}
	found := false
	for _, fn := range warm.Stats.Reanalyzed {
		if fn == mutated {
			found = true
		}
	}
	if !found {
		t.Fatalf("mutated handler %s not re-analyzed (reanalyzed: %v)", mutated, warm.Stats.Reanalyzed)
	}
	// Every miss is the edit's doing, and attributed as such.
	wantDecisions(t, warm.Stats, DecisionDepInvalidated)
	// The acceptance bound: a single-handler edit re-analyzes < 10%
	// of functions.
	if frac := float64(len(warm.Stats.Reanalyzed)) / float64(warm.Stats.Functions); frac >= 0.10 {
		t.Errorf("edit re-analyzed %.1f%% of %d functions: %v",
			frac*100, warm.Stats.Functions, warm.Stats.Reanalyzed)
	}

	// Warm results on the mutated corpus must be byte-identical to a
	// from-scratch cold run on the same mutated corpus.
	fresh := &Analyzer{}
	coldMutated, err := fresh.Check(Request{Prog: prog2, Spec: p2.Spec, Jobs: FlashJobs(p2.Spec)})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(render(warm.Reports), render(coldMutated.Reports)) {
		t.Fatal("incremental result differs from from-scratch result on mutated corpus")
	}
	// And the pristine cold run must still differ-or-match only via
	// the mutation (sanity: the mutation is semantically inert, so
	// reports should in fact be unchanged).
	if !bytes.Equal(render(cold.Reports), render(warm.Reports)) {
		t.Log("note: inert mutation changed reports (acceptable, but unexpected)")
	}
}

// TestVersionBumpMisses: bumping one checker's version invalidates
// exactly that checker's cached artifacts, and bumping every version
// invalidates everything; changing one checker's options then
// invalidates that checker again. Each miss is attributed to its
// cause, and the recomputed reports are byte-identical to the cached
// ones.
func TestVersionBumpMisses(t *testing.T) {
	d, err := depot.Open("")
	if err != nil {
		t.Fatal(err)
	}
	a := &Analyzer{Depot: d}
	p, prog := loadProto(t, nil)
	jobs := FlashJobs(p.Spec)
	base, err := a.Check(Request{Prog: prog, Spec: p.Spec, Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}

	// Find an SM job and bump it.
	bumped := -1
	for i := range jobs {
		if jobs[i].SM != nil {
			jobs[i].Version = "99.0.0"
			bumped = i
			break
		}
	}
	if bumped < 0 {
		t.Fatal("no SM job")
	}
	res, err := a.Check(Request{Prog: prog, Spec: p.Spec, Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheMisses != res.Stats.Functions {
		t.Fatalf("version bump missed %d times, want one per function (%d)",
			res.Stats.CacheMisses, res.Stats.Functions)
	}
	wantDecisions(t, res.Stats, DecisionVersionBump)
	if !bytes.Equal(render(res.Reports), render(base.Reports)) {
		t.Fatal("version bump changed the report stream")
	}

	// Bump every job: nothing may hit, and every miss is a bump.
	for i := range jobs {
		jobs[i].Version += "+all"
	}
	res, err = a.Check(Request{Prog: prog, Spec: p.Spec, Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheHits != 0 || res.Stats.CacheMisses == 0 {
		t.Fatalf("bumping every version: %d hits, %d misses; want only misses",
			res.Stats.CacheHits, res.Stats.CacheMisses)
	}
	wantDecisions(t, res.Stats, DecisionVersionBump)
	if !bytes.Equal(render(res.Reports), render(base.Reports)) {
		t.Fatal("bumping every version changed the report stream")
	}

	// Changing the bumped SM job's options misses it once per function
	// again, now attributed to the options.
	jobs[bumped].Options += "+changed"
	res, err = a.Check(Request{Prog: prog, Spec: p.Spec, Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheMisses != res.Stats.Functions {
		t.Fatalf("options change missed %d times, want one per function (%d)",
			res.Stats.CacheMisses, res.Stats.Functions)
	}
	wantDecisions(t, res.Stats, DecisionOptionsChanged)
	if !bytes.Equal(render(res.Reports), render(base.Reports)) {
		t.Fatal("options change altered the report stream")
	}
}

// TestCorpusSummariesMarshalDeterministic is the satellite golden
// check at corpus scale: generating and loading the corpus twice and
// marshaling the lane summaries must produce identical bytes, or
// depot content hashes would churn across runs.
func TestCorpusSummariesMarshalDeterministic(t *testing.T) {
	_, prog1 := loadProto(t, nil)
	_, prog2 := loadProto(t, nil)
	b1, err := global.Marshal(checkers.Summarize(prog1))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := global.Marshal(checkers.Summarize(prog2))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("summary marshal differs across identical corpus loads")
	}
	l1, _ := global.Link(checkers.Summarize(prog1))
	l2, _ := global.Link(checkers.Summarize(prog2))
	pb1, err := l1.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	pb2, err := l2.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb1, pb2) {
		t.Fatal("linked program marshal differs across identical corpus loads")
	}
}

// TestFingerprintSensitivity: a one-character edit inside a function
// changes that function's fingerprint and nothing else's.
func TestFingerprintSensitivity(t *testing.T) {
	_, prog := loadProto(t, nil)
	before := Fingerprints(prog)

	p2, prog2 := loadProto(t, nil)
	var mutated string
	pp := &flashgen.Protocol{Files: p2.Files, Spec: p2.Spec}
	mutated = mutateOneHandler(t, pp, prog2)
	_, prog3 := loadProtoFromFiles(t, p2)
	after := Fingerprints(prog3)

	if len(before) != len(after) {
		t.Fatalf("function count changed: %d vs %d", len(before), len(after))
	}
	changed := 0
	for i := range before {
		if before[i] != after[i] {
			changed++
			if prog.Fns[i].Name != mutated {
				t.Errorf("unmutated function %s changed fingerprint", prog.Fns[i].Name)
			}
		}
	}
	if changed != 1 {
		t.Errorf("%d fingerprints changed, want 1", changed)
	}
}

func loadProtoFromFiles(t *testing.T, p *flashgen.Protocol) (*flashgen.Protocol, *core.Program) {
	t.Helper()
	prog, err := core.Load(p.Name, p.Source(), p.RootFiles)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.ParseErrors) > 0 {
		t.Fatalf("parse errors: %v", prog.ParseErrors[0])
	}
	return p, prog
}
