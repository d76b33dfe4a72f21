package sched

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"flashmc/internal/cc/token"
	"flashmc/internal/checkers"
	"flashmc/internal/depot"
	"flashmc/internal/engine"
	"flashmc/internal/flash"
	"flashmc/internal/lint"
	"flashmc/internal/obs"
)

// triageSMs builds the Report.SM → machine and version maps for the
// built-in suite under a spec, keyed the way reports name their
// producer (sm.Name, which can differ from the registry name).
func triageSMs(spec *flash.Spec) (map[string]*engine.SM, map[string]string) {
	sms := map[string]*engine.SM{}
	versions := map[string]string{}
	for _, chk := range checkers.All() {
		if prov, ok := chk.(checkers.SMProvider); ok {
			sm, _ := prov.BuildSM(spec)
			sms[sm.Name] = sm
			versions[sm.Name] = chk.Version()
		}
	}
	return sms, versions
}

// renderRanked serializes a ranked stream for byte-level comparison
// in presentation order.
func renderRanked(ranked []lint.RankedReport) []byte {
	rs := append([]lint.RankedReport(nil), ranked...)
	lint.SortRanked(rs)
	var buf bytes.Buffer
	for _, r := range rs {
		fmt.Fprintf(&buf, "%s: [%s] %s confidence=%s reason=%s\n",
			r.Pos, r.SM, r.Msg, r.Confidence, r.Reason)
	}
	return buf.Bytes()
}

// TestTriageArtifactRoundTrip pins the triage/v1 depot format: the
// marshaled artifact survives Put → Get byte-identically, and
// re-marshaling the decoded value reproduces the stored bytes, so the
// payload is safe to content-address and diff.
func TestTriageArtifactRoundTrip(t *testing.T) {
	d, err := depot.Open(filepath.Join(t.TempDir(), "depot"))
	if err != nil {
		t.Fatal(err)
	}
	art := triageArtifact{Verdicts: []triageVerdict{
		{Rule: "at-exit", Fn: "h_datadep_1",
			Pos:        token.Pos{File: "p.c", Line: 12, Col: 3},
			Msg:        "leak: buffer never freed",
			Confidence: lint.Infeasible, Reason: lint.ReasonSymRefuted},
		{Rule: "double-free", Fn: "h_legacy_1",
			Pos:        token.Pos{File: "p.c", Line: 40, Col: 5},
			Msg:        "double free",
			Confidence: lint.Certain, Reason: lint.ReasonFeasible},
	}}
	want, err := json.Marshal(art)
	if err != nil {
		t.Fatal(err)
	}
	key := depot.Key{Kind: triageKind, Source: "fp0", Checker: "free",
		Version: "v1", Options: lint.TriageOptions{}.Fingerprint()}
	if err := d.PutJSON(key, art); err != nil {
		t.Fatal(err)
	}
	got, ok := d.Get(key)
	if !ok {
		t.Fatal("artifact not found under its own key")
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("stored bytes differ from marshaled artifact:\n%s\n%s", got, want)
	}
	var dec triageArtifact
	if err := json.Unmarshal(got, &dec); err != nil {
		t.Fatal(err)
	}
	re, err := json.Marshal(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, got) {
		t.Fatalf("re-marshaled artifact differs from stored bytes:\n%s\n%s", re, got)
	}
}

// TestTriageWarmServesFromDepot is the cache contract: a cold triage
// computes and stores every verdict group, a warm one serves them all
// from the depot (counter-gated, so "warm" provably means no path
// replay) and renders byte-identically.
func TestTriageWarmServesFromDepot(t *testing.T) {
	d, err := depot.Open(filepath.Join(t.TempDir(), "depot"))
	if err != nil {
		t.Fatal(err)
	}
	a := &Analyzer{Depot: d}
	p, prog := loadProto(t, nil)
	res, err := a.Check(Request{Prog: prog, Spec: p.Spec, Jobs: FlashJobs(p.Spec)})
	if err != nil {
		t.Fatal(err)
	}
	sms, versions := triageSMs(p.Spec)
	req := TriageRequest{Prog: prog, SMs: sms, Versions: versions,
		Reports: res.Reports, Options: lint.TriageOptions{Mode: lint.ModeSym}}

	hitsC := obs.Default.Counter("sched_triage_cache_hits_total", "")
	missesC := obs.Default.Counter("sched_triage_cache_misses_total", "")
	hits0, misses0 := hitsC.Value(), missesC.Value()
	cold, coldStats := a.TriageReports(req)
	if coldStats.CacheMisses == 0 || coldStats.CacheHits != 0 {
		t.Fatalf("cold triage stats: %+v", coldStats)
	}

	warm, warmStats := a.TriageReports(req)
	if warmStats.CacheMisses != 0 || warmStats.CacheHits != coldStats.CacheMisses {
		t.Fatalf("warm triage stats: %+v (cold %+v)", warmStats, coldStats)
	}
	if hits := hitsC.Value() - hits0; hits != float64(warmStats.CacheHits) {
		t.Errorf("sched_triage_cache_hits_total advanced by %v, want %d", hits, warmStats.CacheHits)
	}
	if misses := missesC.Value() - misses0; misses != float64(coldStats.CacheMisses) {
		t.Errorf("sched_triage_cache_misses_total advanced by %v, want %d", misses, coldStats.CacheMisses)
	}

	if !bytes.Equal(renderRanked(cold), renderRanked(warm)) {
		t.Error("warm triage renders differently from cold")
	}
}

// TestTriageReportsIndexAligned: the ranked stream is index-aligned
// with the request's reports on a cache miss and on a hit, so out[i]
// ranks Reports[i] (and shares Result.RefIdx[i]). The input takes the
// even-indexed reports, then the odd ones, so checkers interleave and
// grouping by checker without scattering back would misalign it.
func TestTriageReportsIndexAligned(t *testing.T) {
	d, err := depot.Open("")
	if err != nil {
		t.Fatal(err)
	}
	a := &Analyzer{Depot: d}
	p, prog := loadProto(t, nil)
	res, err := a.Check(Request{Prog: prog, Spec: p.Spec, Jobs: FlashJobs(p.Spec)})
	if err != nil {
		t.Fatal(err)
	}
	var reports []engine.Report
	for start := 0; start < 2; start++ {
		for i := start; i < len(res.Reports); i += 2 {
			reports = append(reports, res.Reports[i])
		}
	}
	seen := map[string]bool{}
	interleaved := false
	for i, r := range reports {
		interleaved = interleaved || (seen[r.SM] && reports[i-1].SM != r.SM)
		seen[r.SM] = true
	}
	if !interleaved {
		t.Fatal("input does not interleave checkers; the test would be vacuous")
	}
	sms, versions := triageSMs(p.Spec)
	req := TriageRequest{Prog: prog, SMs: sms, Versions: versions,
		Reports: reports, Options: lint.TriageOptions{Mode: lint.ModeSym}}
	for _, run := range []string{"miss", "hit"} {
		ranked, st := a.TriageReports(req)
		if (run == "miss") != (st.CacheHits == 0) {
			t.Fatalf("%s: stats %+v", run, st)
		}
		if len(ranked) != len(reports) {
			t.Fatalf("%s: %d ranked, want %d", run, len(ranked), len(reports))
		}
		for i := range reports {
			if !reflect.DeepEqual(ranked[i].Report, reports[i]) {
				t.Fatalf("%s: ranked[%d] is %s [%s], want %s [%s]", run, i,
					ranked[i].Pos, ranked[i].SM, reports[i].Pos, reports[i].SM)
			}
		}
	}
}

// TestTriageVersionBumpInvalidates proves the invalidation boundary:
// bumping the triage algorithm version recomputes every verdict group
// while the checkers' own report artifacts stay warm (the two tiers
// key independently).
func TestTriageVersionBumpInvalidates(t *testing.T) {
	d, err := depot.Open(filepath.Join(t.TempDir(), "depot"))
	if err != nil {
		t.Fatal(err)
	}
	a := &Analyzer{Depot: d}
	p, prog := loadProto(t, nil)
	res, err := a.Check(Request{Prog: prog, Spec: p.Spec, Jobs: FlashJobs(p.Spec)})
	if err != nil {
		t.Fatal(err)
	}
	sms, versions := triageSMs(p.Spec)
	req := TriageRequest{Prog: prog, SMs: sms, Versions: versions,
		Reports: res.Reports, Options: lint.TriageOptions{Mode: lint.ModeSym}}

	v1, v1Stats := a.triageReports(req, "1")
	if v1Stats.CacheMisses == 0 {
		t.Fatalf("first run must compute: %+v", v1Stats)
	}
	v2, v2Stats := a.triageReports(req, "2")
	if v2Stats.CacheHits != 0 || v2Stats.CacheMisses != v1Stats.CacheMisses {
		t.Fatalf("version bump must recompute every group: %+v (v1 %+v)", v2Stats, v1Stats)
	}
	// Same algorithm, so the recomputed verdicts agree.
	if !bytes.Equal(renderRanked(v1), renderRanked(v2)) {
		t.Error("version bump changed verdicts under an unchanged algorithm")
	}

	// The checker tier is untouched: a re-check of the same program is
	// fully warm.
	warm, err := a.Check(Request{Prog: prog, Spec: p.Spec, Jobs: FlashJobs(p.Spec)})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.CacheMisses != 0 {
		t.Fatalf("triage-version bump invalidated checker artifacts: %+v", warm.Stats)
	}
}

// TestTriageRankDeterminism is the satellite determinism gate: the
// ranked stream renders byte-identically across worker counts and
// cache temperatures under -triage=sym.
func TestTriageRankDeterminism(t *testing.T) {
	var renders [][]byte
	for _, workers := range []int{1, 8} {
		d, err := depot.Open(filepath.Join(t.TempDir(), "depot"))
		if err != nil {
			t.Fatal(err)
		}
		a := &Analyzer{Depot: d, Workers: workers}
		p, prog := loadProto(t, nil)
		res, err := a.Check(Request{Prog: prog, Spec: p.Spec, Jobs: FlashJobs(p.Spec)})
		if err != nil {
			t.Fatal(err)
		}
		sms, versions := triageSMs(p.Spec)
		req := TriageRequest{Prog: prog, SMs: sms, Versions: versions,
			Reports: res.Reports, Options: lint.TriageOptions{Mode: lint.ModeSym}}
		cold, _ := a.TriageReports(req)
		warm, _ := a.TriageReports(req)
		if !bytes.Equal(renderRanked(cold), renderRanked(warm)) {
			t.Errorf("-j %d: warm render differs from cold", workers)
		}
		renders = append(renders, renderRanked(cold))
	}
	if !bytes.Equal(renders[0], renders[1]) {
		t.Error("-j 1 and -j 8 render different ranked streams")
	}
}
