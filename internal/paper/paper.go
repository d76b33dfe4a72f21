// Package paper reproduces the evaluation of the paper: each table and
// figure has a driver that generates the synthetic corpus, runs the
// corresponding checker(s), joins the reports against the generator's
// ground-truth manifest, and renders a paper-vs-measured comparison.
//
// Scoring is strict by construction: every checker report must land on
// a seeded manifest site (same checker, file and line) and every
// seeded report-class site must be hit. Any unmatched report or missed
// site is surfaced in Score and fails the reproduction tests, so the
// published numbers cannot drift silently.
package paper

import (
	"fmt"

	"flashmc/internal/checkers"
	"flashmc/internal/core"
	"flashmc/internal/engine"
	"flashmc/internal/flashgen"
)

// Corpus bundles the generated protocols with their loaded programs.
type Corpus struct {
	Gen      *flashgen.Corpus
	Programs map[string]*core.Program
}

// LoadCorpus generates and loads the whole corpus.
func LoadCorpus(opts flashgen.Options) (*Corpus, error) {
	gen := flashgen.Generate(opts)
	c := &Corpus{Gen: gen, Programs: map[string]*core.Program{}}
	for _, p := range gen.Protocols {
		prog, err := core.Load(p.Name, p.Source(), p.RootFiles)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", p.Name, err)
		}
		if len(prog.ParseErrors) > 0 {
			return nil, fmt.Errorf("load %s: %v", p.Name, prog.ParseErrors[0])
		}
		c.Programs[p.Name] = prog
	}
	return c, nil
}

// Score is the outcome of joining one checker's reports with one
// protocol's manifest.
type Score struct {
	Errors     int
	FalsePos   int
	Minor      int
	Violations int
	Warnings   int
	// Unmatched lists reports that hit no manifest site (reproduction
	// failures).
	Unmatched []engine.Report
	// Missed lists report-class sites no report landed on.
	Missed []flashgen.Site
}

// reportClasses are the manifest classes that correspond to checker
// reports (annotations, by contrast, suppress reports).
func isReportClass(c flashgen.Class) bool {
	switch c {
	case flashgen.ClassError, flashgen.ClassFalsePos, flashgen.ClassMinor,
		flashgen.ClassViolation, flashgen.ClassWarning:
		return true
	}
	return false
}

// ScoreChecker joins reports from one checker against the manifest.
func ScoreChecker(proto *flashgen.Protocol, checker string, reports []engine.Report) Score {
	type key struct {
		file string
		line int
	}
	sites := map[key]flashgen.Site{}
	for _, s := range proto.Manifest {
		if s.Checker == checker && isReportClass(s.Class) {
			sites[key{s.File, s.Line}] = s
		}
	}
	var sc Score
	hit := map[key]bool{}
	for _, r := range reports {
		k := key{r.Pos.File, r.Pos.Line}
		s, ok := sites[k]
		if !ok {
			sc.Unmatched = append(sc.Unmatched, r)
			continue
		}
		if hit[k] {
			continue // several configurations reporting one site count once
		}
		hit[k] = true
		switch s.Class {
		case flashgen.ClassError:
			sc.Errors++
		case flashgen.ClassFalsePos:
			sc.FalsePos++
		case flashgen.ClassMinor:
			sc.Minor++
		case flashgen.ClassViolation:
			sc.Violations++
		case flashgen.ClassWarning:
			sc.Warnings++
		}
	}
	for k, s := range sites {
		if !hit[k] {
			sc.Missed = append(sc.Missed, s)
		}
	}
	return sc
}

// AnnotationCount tallies manifest annotation sites of one class.
func AnnotationCount(proto *flashgen.Protocol, checker string, class flashgen.Class) int {
	n := 0
	for _, s := range proto.Manifest {
		if s.Checker == checker && s.Class == class {
			n++
		}
	}
	return n
}

// RunChecker executes one checker over every protocol, keyed by
// protocol name.
func (c *Corpus) RunChecker(chk checkers.Checker) map[string][]engine.Report {
	out := map[string][]engine.Report{}
	for _, p := range c.Gen.Protocols {
		out[p.Name], _ = chk.CheckCov(c.Programs[p.Name], p.Spec)
	}
	return out
}
