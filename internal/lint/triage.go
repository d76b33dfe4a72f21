package lint

import (
	"fmt"
	"sort"
	"time"

	"flashmc/internal/cc/ast"
	"flashmc/internal/cc/token"
	"flashmc/internal/cfg"
	"flashmc/internal/core"
	"flashmc/internal/engine"
	"flashmc/internal/obs"
	"flashmc/internal/sym"
)

// The report-triage passes. The paper (§6) attributes most of the 69
// published false positives to infeasible paths the system chose not
// to prune globally; the engine's CorrelateBranches pruner attacks
// only the bare-identifier slice of them, inside the fixed point.
// Triage instead works per report, after the fact:
//
//  1. slice backward from the report site to the entry, keeping only
//     CFG nodes that can reach the site;
//  2. enumerate loop-bounded paths through the slice;
//  3. replay the checker's SM along each path (engine.Sim) while
//     tracking every branch condition by its normalized text — not
//     just bare identifiers — and invalidating recorded outcomes when
//     an operand is written;
//  4. rank the report Certain if it reproduces on some feasible path,
//     LikelyFP if it reproduces only on paths taking contradictory
//     outcomes of one condition, and Certain (conservatively) when
//     the path budget runs out or the site cannot be replayed.
//
// Demotion is evidence of infeasibility, never silence: LikelyFP
// reports are still reports.

// Confidence ranks a report.
type Confidence string

const (
	// Certain marks reports reproduced on a feasible path, plus
	// everything triage cannot analyze (conservative default).
	Certain Confidence = "certain"
	// LikelyFP marks reports that only arise on branch-correlated
	// infeasible paths.
	LikelyFP Confidence = "likely-fp"
	// Infeasible marks reports whose every firing path the symbolic
	// evaluator proved unsatisfiable — the strongest demotion the
	// triage ladder can issue. Still a report, never silence.
	Infeasible Confidence = "infeasible"
)

// Rank orders confidences for display: the stronger the demotion
// evidence, the later the report sorts.
func (c Confidence) Rank() int {
	switch c {
	case LikelyFP:
		return 1
	case Infeasible:
		return 2
	}
	return 0
}

// SortRanked orders a ranked stream for presentation, in RankedOrder.
func SortRanked(rs []RankedReport) {
	sorted := make([]RankedReport, 0, len(rs))
	for _, i := range RankedOrder(rs) {
		sorted = append(sorted, rs[i])
	}
	copy(rs, sorted)
}

// RankedOrder returns the permutation that orders a ranked stream for
// presentation: confidence rank first (certain above demoted), then
// position, then checker, rule, and message as tiebreakers. The
// comparison is a total order over every field that prints, so equal
// report sets render byte-identically regardless of input order, worker
// count, or cache temperature. Indexing through the permutation keeps
// each report's position in rs, so a stream index-aligned with
// sched.Result.Reports keeps its Result.RefIdx provenance link.
func RankedOrder(rs []RankedReport) []int {
	order := make([]int, len(rs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := &rs[order[i]], &rs[order[j]]
		if ar, br := a.Confidence.Rank(), b.Confidence.Rank(); ar != br {
			return ar < br
		}
		if a.Pos.File != b.Pos.File {
			return a.Pos.File < b.Pos.File
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.SM != b.SM {
			return a.SM < b.SM
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
	return order
}

// TriageMode selects the triage ladder height.
type TriageMode string

// Triage modes.
const (
	// ModeSlice (the default) is the PR 1 ladder: slicing plus
	// syntactic branch-outcome contradiction.
	ModeSlice TriageMode = "slice"
	// ModeSym adds the bounded symbolic evaluator: paths surviving
	// the syntactic rung are walked symbolically and the report is
	// demoted to Infeasible when every firing path is refuted.
	ModeSym TriageMode = "sym"
)

// ParseTriageMode maps a -triage flag or triage_mode value to a mode.
// The empty string keeps triage off.
func ParseTriageMode(v string) (TriageMode, bool) {
	switch v {
	case "":
		return "", true
	case string(ModeSlice), string(ModeSym):
		return TriageMode(v), true
	}
	return "", false
}

// TriageVersion names the triage algorithm revision; it keys depot
// artifacts so verdicts recompute when the ladder changes.
const TriageVersion = "1"

// RankedReport is an engine report plus a triage verdict.
type RankedReport struct {
	engine.Report
	Confidence Confidence
	Reason     string
}

// TriageOptions bounds the per-report path enumeration.
type TriageOptions struct {
	// MaxPaths caps enumerated paths per report (default 4096).
	MaxPaths int
	// MaxSteps caps DFS steps per report (default 200000).
	MaxSteps int
	// Mode selects the ladder height (default ModeSlice).
	Mode TriageMode
	// SymMaxSteps caps symbolic evaluation steps per path (default
	// package sym's own).
	SymMaxSteps int
}

func (o TriageOptions) withDefaults() TriageOptions {
	if o.MaxPaths <= 0 {
		o.MaxPaths = 4096
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = 200000
	}
	if o.Mode == "" {
		o.Mode = ModeSlice
	}
	return o
}

// Fingerprint renders the options canonically for cache keying: two
// runs with equal fingerprints produce identical verdicts.
func (o TriageOptions) Fingerprint() string {
	o = o.withDefaults()
	return fmt.Sprintf("mode=%s,paths=%d,steps=%d,symsteps=%d,alg=%s",
		o.Mode, o.MaxPaths, o.MaxSteps, o.SymMaxSteps, TriageVersion)
}

// Conservative-fallback and verdict reasons. Every RankedReport.Reason
// is one of these (pinned by the reason table test); tools may switch
// on them.
const (
	ReasonFnNotFound   = "function not found; not triaged"
	ReasonSiteNotFound = "report site not located in CFG; not triaged"
	ReasonBudget       = "path budget exhausted; kept conservatively"
	ReasonUnreachable  = "report site unreachable from function entry; kept conservatively"
	ReasonFeasible     = "reproduced on a feasible path"
	ReasonContradicted = "fires only on paths taking contradictory outcomes of a repeated branch condition"
	ReasonNotOnPath    = "not reproduced within path bounds; kept conservatively"
	ReasonSymUndecided = "fires on a path the symbolic evaluator cannot decide; kept conservatively"
	ReasonSymRefuted   = "every path the report fires on is provably unsatisfiable"
	ReasonSymMixed     = "fires only on symbolically refuted or branch-contradictory paths"
	ReasonGlobalPass   = "global pass; not path-triaged"
)

// Triage latency, per report (both modes).
var mTriageLatency = obs.NewHistogram("triage_report_seconds",
	"wall time spent ranking one report", obs.DefBuckets)

// PassThrough ranks every report Certain with the given reason; used
// for checkers that are not SM-based (global passes have no per-path
// replay to triage).
func PassThrough(reports []engine.Report, reason string) []RankedReport {
	out := make([]RankedReport, 0, len(reports))
	for _, r := range reports {
		out = append(out, RankedReport{Report: r, Confidence: Certain, Reason: reason})
	}
	return out
}

// TriageProgram triages sm's reports against the program they were
// produced from, grouping them by function.
func TriageProgram(p *core.Program, sm *engine.SM, reports []engine.Report, opt TriageOptions) []RankedReport {
	out := make([]RankedReport, 0, len(reports))
	for _, r := range reports {
		g := p.Graph(r.Fn)
		if g == nil {
			out = append(out, RankedReport{Report: r, Confidence: Certain,
				Reason: ReasonFnNotFound})
			continue
		}
		out = append(out, triageTimed(g, sm, r, opt.withDefaults()))
	}
	return out
}

// TriageSM triages reports known to come from one function's graph.
func TriageSM(g *cfg.Graph, sm *engine.SM, reports []engine.Report, opt TriageOptions) []RankedReport {
	out := make([]RankedReport, 0, len(reports))
	for _, r := range reports {
		out = append(out, triageTimed(g, sm, r, opt.withDefaults()))
	}
	return out
}

func triageTimed(g *cfg.Graph, sm *engine.SM, r engine.Report, opt TriageOptions) RankedReport {
	start := time.Now()
	rr := triageOne(g, sm, r, opt)
	mTriageLatency.ObserveDuration(time.Since(start))
	return rr
}

func triageOne(g *cfg.Graph, sm *engine.SM, r engine.Report, opt TriageOptions) RankedReport {
	targets := reportTargets(g, r)
	if len(targets) == 0 {
		return RankedReport{Report: r, Confidence: Certain,
			Reason: ReasonSiteNotFound}
	}

	paths, complete := enumeratePaths(g, targets, opt)
	if !complete {
		return RankedReport{Report: r, Confidence: Certain,
			Reason: ReasonBudget}
	}
	if len(paths) == 0 {
		// The site exists but no entry path reaches it (dead code
		// behind a return, or an orphaned label). Distinct from "not
		// reproduced": nothing was replayed at all.
		return RankedReport{Report: r, Confidence: Certain,
			Reason: ReasonUnreachable}
	}
	seedPaths(paths, r)

	// Second-rung evaluator, built lazily on the first path that
	// survives the syntactic rung.
	var ev *sym.Evaluator
	symEval := func(path []*cfg.Edge) sym.Verdict {
		if opt.Mode != ModeSym {
			return sym.Feasible // rung disabled: treat as unrefuted
		}
		if ev == nil {
			ev = sym.NewEvaluator(g, sym.Options{MaxSteps: opt.SymMaxSteps})
		}
		return ev.Path(path)
	}

	var fired, contradicted, refuted, undecided int
	for _, path := range paths {
		hit, contra := replayPath(g, sm, r, path)
		if !hit {
			continue
		}
		fired++
		v := symEval(path)
		switch {
		case v == sym.Infeasible:
			refuted++
		case contra:
			// The syntactic rung's evidence stands on its own.
			contradicted++
		case v == sym.Undecided:
			undecided++
		default:
			// Feasible as far as both rungs can tell: the report is
			// evidence. Short-circuit — no stronger demotion exists.
			return RankedReport{Report: r, Confidence: Certain,
				Reason: ReasonFeasible}
		}
	}

	switch {
	case fired == 0:
		// Fired in the fixed point but on no bounded path:
		// loop-carried state our bounded enumeration cannot
		// reconstruct. Keep it.
		return RankedReport{Report: r, Confidence: Certain,
			Reason: ReasonNotOnPath}
	case undecided > 0:
		return RankedReport{Report: r, Confidence: Certain,
			Reason: ReasonSymUndecided}
	case refuted == fired:
		return RankedReport{Report: r, Confidence: Infeasible,
			Reason: ReasonSymRefuted}
	case refuted > 0:
		return RankedReport{Report: r, Confidence: LikelyFP,
			Reason: ReasonSymMixed}
	default:
		return RankedReport{Report: r, Confidence: LikelyFP,
			Reason: ReasonContradicted}
	}
}

// seedPaths stably reorders the enumerated paths so the ones touching
// the report's witness-trace positions replay first: the common
// feasible case then short-circuits on path one instead of after the
// whole enumeration.
func seedPaths(paths [][]*cfg.Edge, r engine.Report) {
	witness := map[token.Pos]bool{}
	for _, pos := range r.TracePositions() {
		witness[pos] = true
	}
	if len(witness) == 0 {
		return
	}
	scores := make([]int, len(paths))
	for i, path := range paths {
		seen := map[token.Pos]bool{}
		for _, e := range path {
			p := e.To.Pos()
			if witness[p] && !seen[p] {
				seen[p] = true
				scores[i]++
			}
		}
	}
	order := make([]int, len(paths))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return scores[order[i]] > scores[order[j]]
	})
	reordered := make([][]*cfg.Edge, len(paths))
	for i, idx := range order {
		reordered[i] = paths[idx]
	}
	copy(paths, reordered)
}

// reportTargets locates the CFG nodes whose event contains the
// report position. At-exit reports target the exit node.
func reportTargets(g *cfg.Graph, r engine.Report) []*cfg.Node {
	if r.Rule == "at-exit" || r.Pos == g.Exit.Pos() {
		return []*cfg.Node{g.Exit}
	}
	var out []*cfg.Node
	for _, n := range g.Nodes {
		var ev ast.Node
		switch n.Kind {
		case cfg.KindStmt:
			ev = n.Stmt
		case cfg.KindBranch:
			ev = n.Cond
		default:
			continue
		}
		if containsPos(ev, r.Pos) {
			out = append(out, n)
		}
	}
	return out
}

func containsPos(ev ast.Node, pos token.Pos) bool {
	found := false
	ast.Inspect(ev, func(x ast.Node) bool {
		if found {
			return false
		}
		if x != nil && x.Pos() == pos {
			found = true
		}
		return !found
	})
	return found
}

// enumeratePaths lists edge sequences from entry to any target node,
// restricted to the backward slice of the targets (nodes that can
// reach a target), visiting each edge at most twice per path so loops
// unroll once. complete is false when a budget was exhausted, in
// which case the caller must stay conservative.
func enumeratePaths(g *cfg.Graph, targets []*cfg.Node, opt TriageOptions) (paths [][]*cfg.Edge, complete bool) {
	// Backward slice: everything that reaches a target.
	slice := map[*cfg.Node]bool{}
	work := append([]*cfg.Node(nil), targets...)
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		if slice[n] {
			continue
		}
		slice[n] = true
		for _, e := range n.Preds {
			work = append(work, e.From)
		}
	}
	if !slice[g.Entry] {
		return nil, true // target unreachable from entry: no paths
	}

	isTarget := map[*cfg.Node]bool{}
	for _, t := range targets {
		isTarget[t] = true
	}

	steps := 0
	overBudget := false
	var cur []*cfg.Edge
	visits := map[*cfg.Edge]int{}
	var dfs func(n *cfg.Node)
	dfs = func(n *cfg.Node) {
		if overBudget {
			return
		}
		steps++
		if steps > opt.MaxSteps || len(paths) >= opt.MaxPaths {
			overBudget = true
			return
		}
		if isTarget[n] {
			paths = append(paths, append([]*cfg.Edge(nil), cur...))
			// The report fires when the target's event is processed;
			// extending past it cannot un-fire it, so stop here.
			return
		}
		for _, e := range n.Succs {
			if !slice[e.To] || visits[e] >= 2 {
				continue
			}
			visits[e]++
			cur = append(cur, e)
			dfs(e.To)
			cur = cur[:len(cur)-1]
			visits[e]--
		}
	}
	dfs(g.Entry)
	return paths, !overBudget
}

// condFact is one recorded branch outcome, keyed externally by the
// normalized condition text.
type condFact struct {
	outcome bool
	idents  []string
}

// replayPath replays sm along one path with a fresh Sim, tracking
// branch-condition outcomes by normalized expression text (a
// generalization of the engine pruner's bare-identifier key space).
// fired reports whether the replay produced r; infeasible whether the
// path took contradictory outcomes of one unwritten condition.
func replayPath(g *cfg.Graph, sm *engine.SM, r engine.Report, path []*cfg.Edge) (fired, infeasible bool) {
	sim := engine.NewSim(g, sm)
	c, ok := sim.Start()
	if !ok {
		return false, false
	}
	conds := map[string]condFact{}

	if c, ok = sim.Transfer(g.Entry, c); !ok {
		return firedIn(sim, r), false
	}
	var last *cfg.Node = g.Entry
	for _, e := range path {
		// Record the branch outcome this edge commits to.
		if e.From.Kind == cfg.KindBranch && (e.Label == cfg.True || e.Label == cfg.False) {
			cond, negated := engine.StripNegation(e.From.Cond)
			key := ast.ExprString(cond)
			outcome := (e.Label == cfg.True) != negated
			if prev, seen := conds[key]; seen && prev.outcome != outcome {
				infeasible = true
			}
			conds[key] = condFact{outcome: outcome, idents: identNames(cond)}
		}
		if c, ok = sim.Refine(e, c); !ok {
			return firedIn(sim, r), infeasible
		}
		n := e.To
		invalidateConds(conds, n)
		if c, ok = sim.Transfer(n, c); !ok {
			return firedIn(sim, r), infeasible
		}
		last = n
	}
	if last == g.Exit {
		sim.AtExit(c)
	}
	return firedIn(sim, r), infeasible
}

// invalidateConds drops recorded outcomes whose operands node n
// writes, mirroring the engine's own invalidation.
func invalidateConds(conds map[string]condFact, n *cfg.Node) {
	if len(conds) == 0 {
		return
	}
	var ev ast.Node
	switch n.Kind {
	case cfg.KindStmt:
		ev = n.Stmt
	case cfg.KindBranch:
		ev = n.Cond
	default:
		return
	}
	drop := func(name string) {
		for key, f := range conds {
			for _, id := range f.idents {
				if id == name {
					delete(conds, key)
					break
				}
			}
		}
	}
	ast.Inspect(ev, func(x ast.Node) bool {
		switch a := x.(type) {
		case *ast.Assign:
			if id, ok := a.LHS.(*ast.Ident); ok {
				drop(id.Name)
			}
		case *ast.Unary:
			if a.Op == token.Inc || a.Op == token.Dec {
				if id, ok := a.X.(*ast.Ident); ok {
					drop(id.Name)
				}
			}
		case *ast.DeclStmt:
			drop(a.Decl.Name)
		}
		return true
	})
}

func identNames(e ast.Expr) []string {
	var out []string
	seen := map[string]bool{}
	ast.Inspect(e, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok && !seen[id.Name] {
			seen[id.Name] = true
			out = append(out, id.Name)
		}
		return true
	})
	return out
}

func firedIn(sim *engine.Sim, r engine.Report) bool {
	for _, got := range sim.Reports() {
		if got.Rule == r.Rule && got.Pos == r.Pos && got.Msg == r.Msg {
			return true
		}
	}
	return false
}
