// Package lint is a static-analysis pass suite for the metal checkers
// themselves. The paper's §11 "betrayal incident" — a hand-written
// INC_DB_REF that silently blinded the buffer checker — showed that
// the analyses need analyzing: a checker whose state machine has an
// unreachable state, a shadowed rule, or a pattern outside the
// protocol vocabulary reports nothing and looks exactly like a clean
// run.
//
// The package has two pass families:
//
//   - SM-level passes (CheckSM, CheckMetal) over compiled engine.SMs
//     and metal programs: unreachable states, shadowed and overlapping
//     rules, wildcards declared but never bound, dead patterns that
//     can never match the FLASH vocabulary, and absorbing states.
//   - Report-triage passes (TriageProgram, TriageSM) over cfg graphs
//     and engine reports: a backward slice from each report site, a
//     correlated-branch feasibility replay along the sliced paths, and
//     a certain / likely-FP confidence rank per report.
package lint

import (
	"fmt"
	"sort"
)

// Severity grades a diagnostic.
type Severity int

const (
	// Info marks deliberate-looking but order-sensitive constructs,
	// e.g. a specific rule declared before a more general one.
	Info Severity = iota
	// Warn marks constructs that are probably mistakes but do not by
	// themselves disable a checker.
	Warn
	// Error marks constructs that make part of a checker dead: it can
	// never fire, so it fails in the paper's worst mode — silently.
	Error
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warn:
		return "warn"
	case Error:
		return "error"
	}
	return fmt.Sprintf("Severity(%d)", int(s))
}

// Diag is one lint finding.
type Diag struct {
	Pass     string // which pass produced it
	Severity Severity
	SM       string // state machine name, "" for graph-level passes
	State    string // owning state, when meaningful
	Rule     string // rule tag, when meaningful
	Msg      string
}

func (d Diag) String() string {
	loc := d.SM
	if d.State != "" {
		loc += "/" + d.State
	}
	if d.Rule != "" {
		loc += "/" + d.Rule
	}
	if loc != "" {
		loc = " " + loc
	}
	return fmt.Sprintf("%s [%s]%s: %s", d.Severity, d.Pass, loc, d.Msg)
}

// Errors filters diags down to Error severity.
func Errors(diags []Diag) []Diag {
	var out []Diag
	for _, d := range diags {
		if d.Severity == Error {
			out = append(out, d)
		}
	}
	return out
}

// sortDiags orders diagnostics most severe first, then by text, so
// output is stable across runs.
func sortDiags(diags []Diag) {
	sort.SliceStable(diags, func(i, j int) bool {
		if diags[i].Severity != diags[j].Severity {
			return diags[i].Severity > diags[j].Severity
		}
		return diags[i].String() < diags[j].String()
	})
}
