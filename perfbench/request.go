package main

import (
	"bytes"
	"fmt"

	"flashmc/internal/cc/cpp"
	"flashmc/internal/checkers"
	"flashmc/internal/core"
	"flashmc/internal/engine"
	"flashmc/internal/flash"
	"flashmc/internal/flashgen"
	"flashmc/internal/lint"
	"flashmc/internal/paper"
	"flashmc/internal/sched"
)

// outcome is what one request produced.
type outcome struct {
	prog   *core.Program
	res    *sched.Result
	triage sched.TriageStats
	ranked []lint.RankedReport
}

// check is one request: what `mcheck -flash -triage sym` does for one
// protocol, run under the protocol's generated spec (the spec the
// paper reproduction scores against) instead of the naming-convention one.
// core.Load → Analyzer.Check(FlashJobs) → Analyzer.TriageReports(sym)
// → lint.SortRanked.
func check(an *sched.Analyzer, g *flashgen.Protocol, files map[string]string) (*outcome, error) {
	prog, err := core.Load(g.Name, source(files), g.RootFiles)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", g.Name, err)
	}
	if len(prog.ParseErrors) > 0 {
		return nil, fmt.Errorf("load %s: %v", g.Name, prog.ParseErrors[0])
	}
	sms, versions := triageTables(g.Spec)
	res, err := an.Check(sched.Request{Prog: prog, Spec: g.Spec, Jobs: sched.FlashJobs(g.Spec)})
	if err != nil {
		return nil, fmt.Errorf("check %s: %w", g.Name, err)
	}
	ranked, ts := an.TriageReports(sched.TriageRequest{Prog: prog, SMs: sms, Versions: versions,
		Reports: res.Reports, Options: triageOptions})
	lint.SortRanked(ranked)
	return &outcome{prog: prog, res: res, triage: ts, ranked: ranked}, nil
}

var triageOptions = lint.TriageOptions{Mode: lint.ModeSym}

// source serves a protocol's files plus the flash header.
func source(files map[string]string) cpp.MapSource {
	m := cpp.MapSource{"flash-includes.h": flash.IncludesH}
	for k, v := range files {
		m[k] = v
	}
	return m
}

// triageTables maps each SM checker's report name to its machine and
// version, as mcheck builds them for TriageReports.
func triageTables(spec *flash.Spec) (map[string]*engine.SM, map[string]string) {
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

// render is the ranked stream as `mcheck -triage sym -why` prints it:
// every report with its verdict and witness trace.
func render(ranked []lint.RankedReport) []byte {
	var b bytes.Buffer
	for _, r := range ranked {
		fmt.Fprintf(&b, "%s: [%s] %s (%s: %s)\n", r.Pos, r.SM, r.Msg, r.Confidence, r.Reason)
		for i, s := range r.Trace {
			fmt.Fprintf(&b, "    #%d %s\n", i+1, s)
		}
	}
	return b.Bytes()
}

// table7 joins one protocol's reports with its generator manifest the
// way package paper's Table 7 reproduction does, and returns the protocol's
// error and false-positive contributions plus every reproduction
// problem (a report on no seeded site, a seeded site with no report).
func table7(g *flashgen.Protocol, res *sched.Result) (errs, fps int, problems []string) {
	byChecker := map[string][]engine.Report{}
	for i, r := range res.Reports {
		name := "lanes" // link errors belong to the lane job and carry no artifact
		if ix := res.RefIdx[i]; ix >= 0 {
			name = res.Artifacts[ix].Key.Checker
		}
		byChecker[name] = append(byChecker[name], r)
	}
	for _, chk := range checkers.All() {
		name := chk.Name()
		sc := paper.ScoreChecker(g, name, byChecker[name])
		for _, u := range sc.Unmatched {
			problems = append(problems, fmt.Sprintf("%s: unmatched report %s", g.Name, u))
		}
		for _, m := range sc.Missed {
			problems = append(problems, fmt.Sprintf("%s: missed site %s %s:%d", g.Name, m.Checker, m.File, m.Line))
		}
		switch name {
		case "exec", "nofloat": // violations and warnings, not Table 7 errors
		case "buffer_mgmt": // Table 4's useless annotations are its false positives
			errs += sc.Errors
			fps += paper.AnnotationCount(g, name, flashgen.ClassUseless)
		default:
			errs += sc.Errors
			fps += sc.FalsePos
		}
	}
	return errs, fps, problems
}
