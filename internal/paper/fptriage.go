package paper

import (
	"fmt"
	"sort"
	"strings"

	"flashmc/internal/checkers"
	"flashmc/internal/core"
	"flashmc/internal/flashgen"
	"flashmc/internal/lint"
)

// FP triage scoring: run every checker over the stripped corpus (no
// suppressing annotations, so the §6 "useless annotation" sites
// surface as reports), rank each report with package lint's
// slicing-based feasibility triage, and join the ranked reports back
// to the ground-truth manifest. The resulting table states, per
// checker, how many of the paper's 69 false positives the triage
// layer demotes to likely-fp — and proves none of the 34 seeded
// errors lose their certain rank.

// FPTriageRow is one checker's line of the triage table.
type FPTriageRow struct {
	Checker string
	// PaperFPs is the checker's published Table 7 false-positive
	// count (useless annotations count as FPs, following the paper).
	PaperFPs int
	// ScoredFPs is how many manifest FP sites a triaged report landed
	// on in the stripped corpus.
	ScoredFPs int
	// Demoted is how many of those sites only attracted likely-fp
	// reports.
	Demoted int
	// Errors / ErrorsCertain count manifest error sites reported, and
	// those whose report kept the certain rank.
	Errors        int
	ErrorsCertain int
}

// FPTriageResult is the whole table plus totals.
type FPTriageResult struct {
	Rows []FPTriageRow
}

func (r FPTriageResult) Totals() FPTriageRow {
	t := FPTriageRow{Checker: "Total"}
	for _, row := range r.Rows {
		t.PaperFPs += row.PaperFPs
		t.ScoredFPs += row.ScoredFPs
		t.Demoted += row.Demoted
		t.Errors += row.Errors
		t.ErrorsCertain += row.ErrorsCertain
	}
	return t
}

// Render formats the table.
func (r FPTriageResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %9s %9s %9s %9s %9s\n",
		"checker", "paper-fp", "scored", "demoted", "errors", "certain")
	for _, row := range append(append([]FPTriageRow{}, r.Rows...), r.Totals()) {
		fmt.Fprintf(&b, "%-22s %9d %9d %9d %9d %9d\n",
			row.Checker, row.PaperFPs, row.ScoredFPs, row.Demoted,
			row.Errors, row.ErrorsCertain)
	}
	return b.String()
}

// paperFPByChecker maps manifest checker names to Table 7 FP budgets.
var paperFPByChecker = map[string]int{
	"buffer_mgmt": 25, "msglen": 2, "lanes": 0, "buffer_race": 1,
	"alloc": 2, "directory": 31, "sendwait": 8,
}

// FPTriage runs the slicing-based triage pipeline over the stripped
// corpus (the PR 1 baseline).
func FPTriage() (FPTriageResult, error) {
	return FPTriageMode(lint.ModeSlice)
}

// FPTriageMode runs the triage pipeline under the given mode, letting
// the table compare slicing alone against slicing plus the symbolic
// evaluator's second rung.
func FPTriageMode(mode lint.TriageMode) (FPTriageResult, error) {
	c, err := LoadCorpus(flashgen.Options{Seed: 1, StripAnnotations: true})
	if err != nil {
		return FPTriageResult{}, err
	}

	byChecker := map[string]*triageAgg{}
	get := func(name string) *triageAgg {
		if byChecker[name] == nil {
			byChecker[name] = &triageAgg{}
		}
		return byChecker[name]
	}

	suite := []checkers.Checker{
		checkers.NewBufferMgmt(),
		checkers.NewMsglen(),
		checkers.NewLanes(),
		checkers.NewBufferRace(),
		checkers.NewAllocCheck(),
		checkers.NewDirectory(),
		checkers.NewSendWait(),
	}

	for _, proto := range c.Gen.Protocols {
		prog := c.Programs[proto.Name]
		for _, ch := range suite {
			reports, _ := ch.CheckCov(prog, proto.Spec)
			var ranked []lint.RankedReport
			if prov, ok := ch.(checkers.SMProvider); ok {
				sm, _ := prov.BuildSM(proto.Spec)
				ranked = lint.TriageProgram(prog, sm, reports, lint.TriageOptions{Mode: mode})
			} else {
				// Global (non-SM) checkers have no path structure to
				// replay; their reports pass through as certain.
				ranked = lint.PassThrough(reports, lint.ReasonGlobalPass)
			}
			a := get(ch.Name())
			scoreTriaged(proto, prog, ch.Name(), ranked, a)
		}
	}

	var rows []FPTriageRow
	var names []string
	for n := range paperFPByChecker {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := get(n)
		rows = append(rows, FPTriageRow{
			Checker:  n,
			PaperFPs: paperFPByChecker[n], ScoredFPs: a.scoredFPs,
			Demoted: a.demoted, Errors: a.errors, ErrorsCertain: a.errorsCertain,
		})
	}
	return FPTriageResult{Rows: rows}, nil
}

// triageAgg accumulates the join results for one checker.
type triageAgg struct {
	scoredFPs, demoted, errors, errorsCertain int
}

// scoreTriaged joins one checker's ranked reports to the manifest.
// FP-class and error sites join by exact file:line (like
// ScoreChecker). Useless-annotation sites cannot: with the annotation
// stripped, the suppressed report surfaces at the free site or the
// function exit, not at the annotation's own line — so useless sites
// join per enclosing function, pairing the function's stripped
// reports with its annotation sites.
func scoreTriaged(proto *flashgen.Protocol, prog *core.Program, checker string, ranked []lint.RankedReport, a *triageAgg) {
	type key struct {
		file string
		line int
	}
	exact := map[key]flashgen.Class{}
	uselessPerFn := map[string]int{}
	for _, s := range proto.Manifest {
		if s.Checker != checker {
			continue
		}
		switch s.Class {
		case flashgen.ClassError, flashgen.ClassFalsePos:
			exact[key{s.File, s.Line}] = s.Class
		case flashgen.ClassUseless:
			if fn := enclosingFn(prog, s.File, s.Line); fn != "" {
				uselessPerFn[fn]++
			}
		}
	}

	type siteHits struct {
		reports, likelyFP, certain int
	}
	exactHits := map[key]*siteHits{}
	fnHits := map[string]*siteHits{}
	for _, rr := range ranked {
		k := key{rr.Pos.File, rr.Pos.Line}
		var h *siteHits
		if _, ok := exact[k]; ok {
			if exactHits[k] == nil {
				exactHits[k] = &siteHits{}
			}
			h = exactHits[k]
		} else if uselessPerFn[rr.Fn] > 0 {
			if fnHits[rr.Fn] == nil {
				fnHits[rr.Fn] = &siteHits{}
			}
			h = fnHits[rr.Fn]
		} else {
			continue // stray (e.g. a stripped useful annotation's report)
		}
		h.reports++
		if rr.Confidence.Rank() > 0 { // likely-fp or infeasible
			h.likelyFP++
		} else {
			h.certain++
		}
	}

	for k, h := range exactHits {
		switch exact[k] {
		case flashgen.ClassError:
			a.errors++
			if h.certain > 0 {
				a.errorsCertain++
			}
		case flashgen.ClassFalsePos:
			a.scoredFPs++
			if h.likelyFP > 0 && h.certain == 0 {
				a.demoted++
			}
		}
	}
	for fn, h := range fnHits {
		sites := uselessPerFn[fn]
		a.scoredFPs += min(sites, h.reports)
		a.demoted += min(sites, h.likelyFP)
	}
}

// enclosingFn maps a manifest line to the function containing it.
func enclosingFn(prog *core.Program, file string, line int) string {
	for _, fn := range prog.Fns {
		if fn.Pos().File == file && fn.Pos().Line <= line && line <= fn.EndPos.Line {
			return fn.Name
		}
	}
	return ""
}
