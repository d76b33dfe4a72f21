package sched

import (
	"flashmc/internal/cc/token"
	"flashmc/internal/core"
	"flashmc/internal/depot"
	"flashmc/internal/engine"
	"flashmc/internal/lint"
	"flashmc/internal/obs"
)

// triageKind versions the depot's triage-verdict artifact format.
// Bumping it retires every cached verdict at once; per-algorithm
// invalidation goes through lint.TriageVersion instead.
const triageKind = "triage/v1"

var (
	mTriageHits = obs.NewCounter("sched_triage_cache_hits_total",
		"triage verdict groups served from the depot")
	mTriageMisses = obs.NewCounter("sched_triage_cache_misses_total",
		"triage verdict groups recomputed (path replay + symbolic evaluation)")
)

// triageVerdict is one cached report ranking. The identity fields
// restate the report the verdict was computed for, so a warm join can
// prove it is applying verdicts to the same report stream before
// trusting them.
type triageVerdict struct {
	Rule       string          `json:"rule,omitempty"`
	Fn         string          `json:"fn,omitempty"`
	Pos        token.Pos       `json:"pos"`
	Msg        string          `json:"msg"`
	Confidence lint.Confidence `json:"confidence"`
	Reason     string          `json:"reason"`
}

// triageArtifact is the depot payload for one checker's verdicts over
// one program under one options fingerprint.
type triageArtifact struct {
	Verdicts []triageVerdict `json:"verdicts"`
}

// TriageRequest asks for a ranked report stream.
type TriageRequest struct {
	Prog *core.Program
	// SMs maps Report.SM names to the machines that produced them.
	// Reports whose machine is absent pass through certain (global
	// passes have no per-path replay to triage).
	SMs map[string]*engine.SM
	// Versions maps Report.SM names to the producing checker's
	// semantic version for cache keying; an absent entry keys on the
	// empty version.
	Versions map[string]string
	// Reports is the combined stream, in assembly order.
	Reports []engine.Report
	Options lint.TriageOptions
}

// TriageStats counts one call's depot traffic, one lookup per
// checker group.
type TriageStats struct {
	CacheHits, CacheMisses int
}

// TriageReports ranks a report stream with lint's path-feasibility
// triage, caching verdicts in the depot keyed by program fingerprint
// × checker × triage version × options fingerprint. A warm call skips
// path enumeration and symbolic replay entirely. The result is
// index-aligned with req.Reports: out[i] ranks req.Reports[i], so it
// shares sched.Result.RefIdx[i] when req.Reports is a Result's stream.
func (a *Analyzer) TriageReports(req TriageRequest) ([]lint.RankedReport, TriageStats) {
	return a.triageReports(req, lint.TriageVersion)
}

// triageReports is TriageReports with the algorithm version as an
// input, so tests can prove a version bump recomputes verdicts.
func (a *Analyzer) triageReports(req TriageRequest, version string) ([]lint.RankedReport, TriageStats) {
	d := a.Depot
	if d == nil {
		d, _ = depot.Open("")
	}
	progFP := ProgramFingerprintOf(req.Prog)

	// Group by checker in first-appearance order: TriageProgram sees
	// each machine's reports together, and the order is a pure
	// function of the input stream (no map iteration). Each group
	// remembers its reports' input indices for the scatter back.
	var order []string
	byChecker := map[string][]int{}
	for i, r := range req.Reports {
		if _, ok := byChecker[r.SM]; !ok {
			order = append(order, r.SM)
		}
		byChecker[r.SM] = append(byChecker[r.SM], i)
	}

	out := make([]lint.RankedReport, len(req.Reports))
	var st TriageStats
	for _, name := range order {
		idx := byChecker[name]
		group := make([]engine.Report, len(idx))
		for k, i := range idx {
			group[k] = req.Reports[i]
		}
		sm := req.SMs[name]
		key := depot.Key{Kind: triageKind, Source: progFP, Checker: name,
			Version: hashStrings(req.Versions[name], version),
			Options: req.Options.Fingerprint()}
		var art triageArtifact
		var ranked []lint.RankedReport
		switch {
		case sm == nil:
			ranked = lint.PassThrough(group, lint.ReasonGlobalPass)
		case d.GetJSON(key, &art) && verdictsMatch(art.Verdicts, group):
			st.CacheHits++
			mTriageHits.Inc()
			ranked = make([]lint.RankedReport, len(group))
			for i, r := range group {
				ranked[i] = lint.RankedReport{Report: r,
					Confidence: art.Verdicts[i].Confidence,
					Reason:     art.Verdicts[i].Reason}
			}
		default:
			st.CacheMisses++
			mTriageMisses.Inc()
			ranked = lint.TriageProgram(req.Prog, sm, group, req.Options)
			art.Verdicts = art.Verdicts[:0]
			for _, rr := range ranked {
				art.Verdicts = append(art.Verdicts, triageVerdict{Rule: rr.Rule,
					Fn: rr.Fn, Pos: rr.Pos, Msg: rr.Msg,
					Confidence: rr.Confidence, Reason: rr.Reason})
			}
			// A failed cache write costs the next run a recompute,
			// nothing more; the verdicts themselves are already in hand.
			_ = d.PutJSON(key, art)
		}
		for k, i := range idx {
			out[i] = ranked[k]
		}
	}
	return out, st
}

// verdictsMatch proves a cached artifact describes exactly this
// report group (defense against key collisions and stale layouts):
// same length, same report identity at every index.
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
