// Package engine executes metal state machines over control-flow
// graphs. It is the analogue of xg++'s extension driver: an SM is
// applied "down every path in each function" (paper §3.2).
//
// Rather than literally enumerating the (exponentially many) paths,
// the default executor propagates sets of SM configurations — a
// (state, bindings) pair — over the CFG to a fixed point. For err()
// style idempotent actions this produces exactly the reports the
// every-path walk would, while always terminating; a bounded
// every-path executor (RunPaths) is kept for differential testing and
// for the ablation benchmark quantifying the difference.
//
// Two refinements the paper calls out are supported directly:
//
//   - Branch-condition rules (CondRule) let a checker move to
//     different states on the true and false edges of a branch whose
//     condition matches a pattern — the paper's "twelve lines ...
//     sensitive to the value of four routines that returned a 0 or 1
//     depending on whether or not they freed a buffer" (§6).
//   - At-exit hooks let a checker flag configurations that reach the
//     function exit in a bad state (buffer leaks).
package engine

import (
	"fmt"
	"sort"
	"strings"

	"flashmc/internal/cc/ast"
	"flashmc/internal/cc/token"
	"flashmc/internal/cfg"
	"flashmc/internal/match"
	"flashmc/internal/obs"
)

// Path-exploration metrics. Runners count locally and flush once per
// run, so the hot loops touch no atomics.
var (
	mRuns    = obs.NewCounter("engine_runs_total", "state-machine executions over a CFG")
	mConfigs = obs.NewCounter("engine_configs_explored_total", "distinct SM configurations reached during runs")
	mRules   = obs.NewCounter("engine_rules_fired_total", "SM rule firings (including rules with no action)")
	mPruned  = obs.NewCounter("engine_infeasible_pruned_total", "configurations dropped by the correlated-branch pruner")
	mReports = obs.NewCounter("engine_reports_total", "diagnostics emitted by runs")
	mPaths   = obs.NewCounter("engine_paths_walked_total", "paths enumerated by the every-path executor")
	mVisits  = obs.NewCounter("engine_node_visits_total", "event-node transfers: one per configuration each time the worklist reaches a statement or branch node")
	mEvals   = obs.NewCounter("engine_pattern_evals_total", "pattern evaluations: one per rule alternative tried against a node event and one per branch-cond pattern tried against a branch condition")
)

// Stop is the reserved target state that kills a configuration (stops
// checking along the current path).
const Stop = "stop"

// All is the reserved rule-owner state whose rules apply in every
// state (paper §5: "rules in the special 'all' state are always run").
const All = "all"

// Pattern is one code pattern: either a statement pattern or an
// expression pattern. Expression patterns (and the expressions inside
// expression-statement patterns) match any sub-expression of the event
// so that e.g. a read macro inside a larger assignment still triggers.
type Pattern struct {
	Stmt ast.Stmt
	Expr ast.Expr
}

// Ctx is passed to rule actions.
type Ctx struct {
	// Env holds the wildcard bindings of the match.
	Env match.Env
	// Node is the CFG node at which the rule fired.
	Node *cfg.Node
	// MatchPos is the position of the matched construct.
	MatchPos token.Pos
	// State is the SM state the configuration was in.
	State string

	eng     *runner
	ruleTag string
	trace   *traceNode
}

// Report emits a diagnostic attributed to the matched construct.
// Repeated firings of the same rule at the same position with the same
// message are deduplicated.
func (c *Ctx) Report(format string, args ...any) {
	c.eng.report(c.ruleTag, c.MatchPos, c.State, fmt.Sprintf(format, args...), c.trace)
}

// FnName returns the name of the function being checked.
func (c *Ctx) FnName() string { return c.eng.g.Fn.Name }

// Bound renders a wildcard binding as source text ("" if unbound).
func (c *Ctx) Bound(name string) string {
	if e, ok := c.Env[name]; ok {
		return ast.ExprString(e)
	}
	return ""
}

// Rule is one SM transition rule.
type Rule struct {
	// State owns the rule; All applies in every state.
	State string
	// Patterns are alternatives; the rule fires on the first that
	// matches the event.
	Patterns []Pattern
	// Target is the destination state; "" stays, Stop kills the
	// configuration.
	Target string
	// Action runs when the rule fires (may be nil).
	Action func(*Ctx)
	// Tag labels the rule in reports (defaults to the rule index).
	Tag string
}

// CondRule refines configurations across branch edges: when a branch
// node's condition contains a sub-expression matching Pattern, the
// configuration's state becomes TrueTarget on the true edge and
// FalseTarget on the false edge ("" keeps the state, Stop prunes).
type CondRule struct {
	State       string
	Pattern     ast.Expr
	TrueTarget  string
	FalseTarget string
	// Negated marks patterns that appear under an odd number of
	// logical negations; the engine swaps the targets then.
	// (Handled automatically for top-level '!'.)
}

// SM is a compiled state machine.
type SM struct {
	Name string
	// Start is the initial state. StartFor (if non-nil) overrides it
	// per function and may return "" to skip the function entirely.
	Start    string
	StartFor func(fn *ast.FuncDecl) string
	// Starts optionally enumerates every state StartFor can return,
	// for static analyses that need the start set without a function
	// in hand (package lint's reachability pass). Run ignores it.
	Starts []string
	Rules  []*Rule
	Cond   []*CondRule
	// AtExit runs for every configuration that reaches the function
	// exit node (after all statements and returns).
	AtExit func(*Ctx)
	// Track names the wildcard variables whose bindings persist in the
	// configuration across rules (the checker "tracks" that object,
	// e.g. a specific buffer variable). All other wildcards bind fresh
	// at every rule match, which is the paper's semantics — in Figure
	// 2 each read re-binds addr/buf independently.
	Track []string
	// CorrelateBranches enables the infeasible-path pruner the paper
	// deliberately omitted (§6: "we do not prune simple impossible
	// paths. The most common case was protocol code that had an
	// 'if-else' branch on a condition ... and then did another
	// 'if-else' branch on the same condition"). When on, outcomes of
	// bare-identifier branch conditions are remembered per
	// configuration and contradictory paths are dropped. It exists for
	// the ablation quantifying how many useless annotations it removes.
	CorrelateBranches bool
}

// keepTracked filters a match environment down to the SM's tracked
// variables; with no Track list configurations carry no bindings.
func (sm *SM) keepTracked(env match.Env) match.Env {
	if len(sm.Track) == 0 || len(env) == 0 {
		return match.Env{}
	}
	out := match.Env{}
	for _, name := range sm.Track {
		if e, ok := env[name]; ok {
			out[name] = e
		}
	}
	return out
}

// envFor computes the configuration environment after a transition to
// target. Re-entering the SM's start state resets tracking: the
// checked object's lifetime is over and the next creation site must
// bind fresh.
func (sm *SM) envFor(target string, env match.Env) match.Env {
	if target == sm.Start {
		return match.Env{}
	}
	return sm.keepTracked(env)
}

// Report is one diagnostic produced by a run.
type Report struct {
	SM    string
	Rule  string
	Fn    string
	Pos   token.Pos
	State string
	Msg   string
	// Trace is the witness: the ordered rule firings and branch
	// refinements along the path that led to this report. The final
	// step is always at the report's own position. Never empty.
	Trace []TraceStep `json:",omitempty"`
}

func (r Report) String() string {
	return fmt.Sprintf("%s: [%s] %s (fn %s, state %s)", r.Pos, r.SM, r.Msg, r.Fn, r.State)
}

// PosOrder returns the permutation that orders reports by (file,
// line), the order mcheck prints and mcheckd returns. The sort is
// stable: reports on one line keep their assembly order. Indexing
// through the permutation keeps each report's position in the
// original slice (sched.Result.RefIdx is parallel to it).
func PosOrder(reports []Report) []int {
	order := make([]int, len(reports))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := reports[order[i]].Pos, reports[order[j]].Pos
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Line < b.Line
	})
	return order
}

// TraceStep is one step of a report's witness trace: where the
// configuration was, what event it saw, and how its state changed.
// Bindings is nil (not empty) when the match bound nothing, so reports
// survive a JSON round-trip through the depot byte-identically.
type TraceStep struct {
	Pos      token.Pos         `json:"pos"`
	Rule     string            `json:"rule,omitempty"`
	From     string            `json:"from,omitempty"`
	To       string            `json:"to,omitempty"`
	Event    string            `json:"event,omitempty"`
	Bindings map[string]string `json:"bindings,omitempty"`
}

func (s TraceStep) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: ", s.Pos)
	if s.From != "" || s.To != "" {
		if s.From == s.To {
			fmt.Fprintf(&b, "[%s] ", s.From)
		} else {
			fmt.Fprintf(&b, "[%s -> %s] ", s.From, s.To)
		}
	}
	if s.Rule != "" {
		fmt.Fprintf(&b, "(%s) ", s.Rule)
	}
	b.WriteString(s.Event)
	if len(s.Bindings) > 0 {
		names := make([]string, 0, len(s.Bindings))
		for k := range s.Bindings {
			names = append(names, k)
		}
		sort.Strings(names)
		b.WriteString(" {")
		for i, n := range names {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s=%s", n, s.Bindings[n])
		}
		b.WriteString("}")
	}
	return b.String()
}

// Witness builds a single-step trace for diagnostics produced outside
// an SM run (AST passes, the lane walker, link errors), satisfying the
// invariant that every Report carries a trace ending at its position.
func Witness(pos token.Pos, rule, event string) []TraceStep {
	return []TraceStep{{Pos: pos, Rule: rule, Event: event}}
}

// TracePositions returns the ordered source positions the report's
// witness trace visits. Triage uses them to seed path exploration:
// CFG paths touching the witness positions are replayed first, so the
// common feasible case short-circuits before the full enumeration.
func (r Report) TracePositions() []token.Pos {
	out := make([]token.Pos, 0, len(r.Trace))
	for _, s := range r.Trace {
		out = append(out, s.Pos)
	}
	return out
}

// traceNode is a persistent (shared-tail) list of witness steps hung
// off a configuration. It is deliberately NOT part of config.key():
// configurations that differ only in how they got somewhere still
// merge, which is what keeps the fixed point terminating. The first
// configuration to reach a key donates the witness (first-writer
// wins), and ordered iteration below makes that choice deterministic.
type traceNode struct {
	step TraceStep
	prev *traceNode
}

func (t *traceNode) push(step TraceStep) *traceNode {
	return &traceNode{step: step, prev: t}
}

// materialize returns the steps oldest-first.
func (t *traceNode) materialize() []TraceStep {
	n := 0
	for x := t; x != nil; x = x.prev {
		n++
	}
	out := make([]TraceStep, n)
	for x := t; x != nil; x = x.prev {
		n--
		out[n] = x.step
	}
	return out
}

// eventText renders a CFG event for a witness step.
func eventText(n ast.Node) string {
	switch x := n.(type) {
	case ast.Stmt:
		return ast.StmtString(x)
	case ast.Expr:
		return ast.ExprString(x)
	}
	return ""
}

// bindingsText renders a match environment for a witness step,
// returning nil when empty.
func bindingsText(env match.Env) map[string]string {
	if len(env) == 0 {
		return nil
	}
	out := make(map[string]string, len(env))
	for k, e := range env {
		out[k] = ast.ExprString(e)
	}
	return out
}

// config is one SM configuration.
type config struct {
	state string
	env   match.Env
	// conds remembers branch outcomes of bare-identifier conditions
	// when the SM's CorrelateBranches pruner is on.
	conds map[string]bool
	// trace is the witness of how this configuration got here. It is
	// excluded from key() — see traceNode.
	trace *traceNode
}

func (c config) key() string {
	if len(c.env) == 0 && len(c.conds) == 0 {
		return c.state
	}
	names := make([]string, 0, len(c.env))
	for k := range c.env {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(c.state)
	for _, n := range names {
		b.WriteByte('|')
		b.WriteString(n)
		b.WriteByte('=')
		b.WriteString(ast.ExprString(c.env[n]))
	}
	if len(c.conds) > 0 {
		cnames := make([]string, 0, len(c.conds))
		for k := range c.conds {
			cnames = append(cnames, k)
		}
		sort.Strings(cnames)
		for _, n := range cnames {
			b.WriteByte('|')
			b.WriteByte('?')
			b.WriteString(n)
			if c.conds[n] {
				b.WriteString("=T")
			} else {
				b.WriteString("=F")
			}
		}
	}
	return b.String()
}

// withCond returns a copy of c recording cond name=outcome.
func (c config) withCond(name string, outcome bool) config {
	nc := config{state: c.state, env: c.env, conds: make(map[string]bool, len(c.conds)+1), trace: c.trace}
	for k, v := range c.conds {
		nc.conds[k] = v
	}
	nc.conds[name] = outcome
	return nc
}

// withoutCond drops a recorded condition (its variable was written).
func (c config) withoutCond(name string) config {
	if _, ok := c.conds[name]; !ok {
		return c
	}
	nc := config{state: c.state, env: c.env, conds: make(map[string]bool, len(c.conds)), trace: c.trace}
	for k, v := range c.conds {
		if k != name {
			nc.conds[k] = v
		}
	}
	return nc
}

// configSet holds configurations deduplicated by key in insertion
// order. The fixed-point loop iterates sets only through configs(), so
// which configuration first claims a key — and hence which witness
// trace a report carries — is as deterministic as the insertion
// sequence, which is: the work list is a slice, predecessor edges are
// slices, and every iteration below walks list order.
type configSet struct {
	idx  map[string]struct{}
	list []config
}

func (s *configSet) add(c config) bool {
	k := c.key()
	if _, ok := s.idx[k]; ok {
		return false
	}
	if s.idx == nil {
		s.idx = map[string]struct{}{}
	}
	s.idx[k] = struct{}{}
	s.list = append(s.list, c)
	return true
}

func (s *configSet) configs() []config { return s.list }

// smPlan is the compile-time shape of one SM: its rules partitioned by
// owning state, so transfer need not rescan every rule per event.
type smPlan struct {
	byState  map[string][]*Rule
	allRules []*Rule
}

// buildPlan partitions an SM's rules by owning state. All-state rules
// go to allRules; transfer fires byState first, then allRules, which
// keeps the SM's firing order (including the degenerate case of a rule
// literally owned by state "all").
func buildPlan(sm *SM) *smPlan {
	p := &smPlan{byState: map[string][]*Rule{}}
	for _, rule := range sm.Rules {
		if rule.State == All {
			p.allRules = append(p.allRules, rule)
		} else {
			p.byState[rule.State] = append(p.byState[rule.State], rule)
		}
	}
	return p
}

// runner executes one SM over one graph.
type runner struct {
	sm      *SM
	g       *cfg.Graph
	reports []Report
	seen    map[string]bool

	// cov tallies rule/state/pattern/cond firings for this run;
	// ruleKeys and condKeys are the precomputed coverage keys.
	cov      *Coverage
	ruleKeys map[*Rule]string
	condKeys []string

	// plan is the SM's rules partitioned by owning state.
	plan *smPlan

	// local metric shadows, flushed once by flushMetrics.
	nConfigs int
	nRules   int
	nPruned  int
	nPaths   int
	nVisits  int
	nEvals   int
}

func (r *runner) flushMetrics() {
	mRuns.Inc()
	mConfigs.Add(float64(r.nConfigs))
	mRules.Add(float64(r.nRules))
	mPruned.Add(float64(r.nPruned))
	mPaths.Add(float64(r.nPaths))
	mVisits.Add(float64(r.nVisits))
	mEvals.Add(float64(r.nEvals))
	mReports.Add(float64(len(r.reports)))
}

func (r *runner) report(rule string, pos token.Pos, state, msg string, tr *traceNode) {
	key := rule + "|" + pos.String() + "|" + msg
	if r.seen[key] {
		return
	}
	r.seen[key] = true
	// The synthesized final step pins the witness to the report: its
	// position is the report position by construction.
	steps := append(tr.materialize(), TraceStep{
		Pos: pos, Rule: rule, From: state, To: state, Event: msg,
	})
	r.reports = append(r.reports, Report{
		SM: r.sm.Name, Rule: rule, Fn: r.g.Fn.Name,
		Pos: pos, State: state, Msg: msg, Trace: steps,
	})
}

// Run executes sm over g and returns its reports.
func Run(g *cfg.Graph, sm *SM) []Report {
	reports, _ := RunCov(g, sm)
	return reports
}

// newRunner builds a runner with its coverage bookkeeping in place:
// every runner carries a Coverage (pathmode and Sim discard theirs)
// and the precomputed rule/cond keys it is tallied under.
func newRunner(sm *SM, g *cfg.Graph) *runner {
	r := &runner{sm: sm, g: g, seen: map[string]bool{},
		cov: &Coverage{SM: sm.Name, Fn: g.Fn.Name}}
	r.ruleKeys = make(map[*Rule]string, len(sm.Rules))
	for i, rule := range sm.Rules {
		r.ruleKeys[rule] = RuleKey(sm, i)
	}
	r.condKeys = make([]string, len(sm.Cond))
	for i := range sm.Cond {
		r.condKeys[i] = CondKey(sm, i)
	}
	r.plan = buildPlan(sm)
	return r
}

// startState resolves the SM's start state for a function ("" skips).
func startState(sm *SM, fn *ast.FuncDecl) string {
	if sm.StartFor != nil {
		return sm.StartFor(fn)
	}
	return sm.Start
}

// RunCov is Run plus the run's dynamic coverage: which rules, states,
// pattern alternatives and branch refinements fired. The coverage is
// never nil (it is Empty when the SM skipped the function).
func RunCov(g *cfg.Graph, sm *SM) ([]Report, *Coverage) {
	cov := &Coverage{SM: sm.Name, Fn: g.Fn.Name}
	if startState(sm, g.Fn) == "" {
		return nil, cov
	}
	r := newRunner(sm, g)
	r.cov = cov
	r.runToFixpoint()
	return r.reports, cov
}

// runToFixpoint drives the worklist to a fixed point, runs the at-exit
// hooks, and flushes metrics. The caller has already resolved a
// non-empty start state.
func (r *runner) runToFixpoint() {
	g, sm, cov := r.g, r.sm, r.cov
	start := startState(sm, g.Fn)

	// out[n] = configurations holding immediately after n's event.
	out := make([]configSet, len(g.Nodes))
	for i := range out {
		out[i] = configSet{}
	}

	work := []*cfg.Node{g.Entry}
	inWork := make([]bool, len(g.Nodes))
	inWork[g.Entry.ID] = true

	// Seed: entry's transfer on the start configuration.
	seed := config{state: start, env: match.Env{}}
	for _, c := range r.transfer(g.Entry, seed) {
		if out[g.Entry.ID].add(c) {
			r.nConfigs++
			cov.hitState(c.state)
		}
	}
	inWork[g.Entry.ID] = false
	for _, e := range g.Entry.Succs {
		if !inWork[e.To.ID] {
			inWork[e.To.ID] = true
			work = append(work, e.To)
		}
	}

	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[n.ID] = false
		if n == g.Entry {
			continue
		}
		// Gather input configs across incoming edges, applying branch
		// refinement when the predecessor is a branch node.
		in := configSet{}
		for _, e := range n.Preds {
			for _, c := range out[e.From.ID].configs() {
				rc, keep := r.refine(c, e)
				if keep {
					in.add(rc)
				}
			}
		}
		changed := false
		for _, c := range in.configs() {
			for _, nc := range r.transfer(n, c) {
				if out[n.ID].add(nc) {
					r.nConfigs++
					cov.hitState(nc.state)
					changed = true
				}
			}
		}
		if changed {
			for _, e := range n.Succs {
				if !inWork[e.To.ID] {
					inWork[e.To.ID] = true
					work = append(work, e.To)
				}
			}
		}
	}

	if sm.AtExit != nil {
		for _, c := range out[g.Exit.ID].configs() {
			ctx := &Ctx{Env: c.env, Node: g.Exit, MatchPos: g.Exit.Pos(),
				State: c.state, eng: r, ruleTag: "at-exit", trace: c.trace}
			sm.AtExit(ctx)
		}
	}
	r.flushMetrics()
}

// refine applies branch-correlation pruning and CondRules to a
// configuration crossing edge e.
func (r *runner) refine(c config, e *cfg.Edge) (config, bool) {
	if e.From.Kind != cfg.KindBranch || (e.Label != cfg.True && e.Label != cfg.False) {
		return c, true
	}
	cond, negated := stripNot(e.From.Cond)
	if r.sm.CorrelateBranches {
		if id, ok := cond.(*ast.Ident); ok {
			outcome := (e.Label == cfg.True) != negated
			if prev, known := c.conds[id.Name]; known {
				if prev != outcome {
					r.nPruned++
					return c, false // contradictory branch: infeasible path
				}
			} else {
				c = c.withCond(id.Name, outcome)
			}
		}
	}
	for ci, cr := range r.sm.Cond {
		if cr.State != c.state && cr.State != All {
			continue
		}
		r.nEvals++
		results := match.Find(cr.Pattern, cond, c.env)
		if len(results) == 0 {
			continue
		}
		matched := results[0].Env
		r.cov.hitCond(r.condKeys[ci])
		isTrue := e.Label == cfg.True
		if negated {
			isTrue = !isTrue
		}
		target := cr.FalseTarget
		if isTrue {
			target = cr.TrueTarget
		}
		isTrueStr := "false"
		if isTrue {
			isTrueStr = "true"
		}
		switch target {
		case "":
			return c, true
		case Stop:
			return c, false
		default:
			env := r.sm.envFor(target, matched)
			tr := c.trace.push(TraceStep{
				Pos: e.From.Pos(), Rule: "cond", From: c.state, To: target,
				Event:    "branch " + ast.ExprString(cond) + " is " + isTrueStr,
				Bindings: bindingsText(env),
			})
			return config{state: target, env: env, conds: c.conds, trace: tr}, true
		}
	}
	return c, true
}

// stripNot removes parens and counts top-level logical negations, so
// CondRules treat "if (!freed(b))" as the negation of "if (freed(b))".
func stripNot(e ast.Expr) (ast.Expr, bool) {
	neg := false
	for {
		switch x := e.(type) {
		case *ast.Paren:
			e = x.X
		case *ast.Unary:
			if x.Op == token.Not && !x.Postfix {
				neg = !neg
				e = x.X
				continue
			}
			return e, neg
		default:
			return e, neg
		}
	}
}

// transfer processes node n's event for configuration c.
func (r *runner) transfer(n *cfg.Node, c config) []config {
	var event ast.Node
	switch n.Kind {
	case cfg.KindStmt:
		event = n.Stmt
	case cfg.KindBranch:
		event = n.Cond
	default:
		return []config{c}
	}

	// Writes to a variable whose branch outcome was recorded
	// invalidate the recorded fact.
	if len(c.conds) > 0 {
		ast.Inspect(event, func(x ast.Node) bool {
			switch a := x.(type) {
			case *ast.Assign:
				if id, ok := a.LHS.(*ast.Ident); ok {
					c = c.withoutCond(id.Name)
				}
			case *ast.Unary:
				if a.Op == token.Inc || a.Op == token.Dec {
					if id, ok := a.X.(*ast.Ident); ok {
						c = c.withoutCond(id.Name)
					}
				}
			case *ast.DeclStmt:
				c = c.withoutCond(a.Decl.Name)
			}
			return true
		})
	}

	// State-specific rules first, then all-state rules (paper §5).
	r.nVisits++
	fire := func(rules []*Rule) ([]config, bool) {
		for _, rule := range rules {
			env, pos, alt, ok := r.matchRule(rule, event, c.env)
			if !ok {
				continue
			}
			r.nRules++
			key := r.ruleKeys[rule]
			r.cov.hitRule(key)
			r.cov.hitPattern(key, alt)
			to := rule.Target
			if to == "" {
				to = c.state
			}
			tr := c.trace.push(TraceStep{
				Pos: pos, Rule: rule.Tag, From: c.state, To: to,
				Event: eventText(event), Bindings: bindingsText(env),
			})
			ctx := &Ctx{Env: env, Node: n, MatchPos: pos, State: c.state,
				eng: r, ruleTag: rule.Tag, trace: tr}
			if rule.Action != nil {
				rule.Action(ctx)
			}
			switch rule.Target {
			case "":
				return []config{{state: c.state, env: r.sm.keepTracked(env), conds: c.conds, trace: tr}}, true
			case Stop:
				return nil, true
			default:
				return []config{{state: rule.Target, env: r.sm.envFor(rule.Target, env), conds: c.conds, trace: tr}}, true
			}
		}
		return nil, false
	}

	if out, fired := fire(r.plan.byState[c.state]); fired {
		return out
	}
	if out, fired := fire(r.plan.allRules); fired {
		return out
	}
	return []config{c}
}

// matchRule tries each alternative of a rule against the event. The
// int result is the index of the alternative that matched, for
// per-alternative coverage.
func (r *runner) matchRule(rule *Rule, event ast.Node, env match.Env) (match.Env, token.Pos, int, bool) {
	for i, p := range rule.Patterns {
		r.nEvals++
		if env2, pos, ok := evalPattern(p, event, env); ok {
			return env2, pos, i, true
		}
	}
	return nil, token.Pos{}, 0, false
}

// evalPattern evaluates one rule-pattern alternative against an event.
func evalPattern(p Pattern, event ast.Node, env match.Env) (match.Env, token.Pos, bool) {
	if p.Stmt != nil {
		if s, ok := event.(ast.Stmt); ok {
			if got, ok2 := match.Stmt(p.Stmt, s, env); ok2 {
				return got, s.Pos(), true
			}
		}
		// Expression-statement patterns also match as
		// sub-expressions of any event.
		if es, ok := p.Stmt.(*ast.ExprStmt); ok {
			if results := match.Find(es.X, event, env); len(results) > 0 {
				return results[0].Env, results[0].Expr.Pos(), true
			}
		}
		return nil, token.Pos{}, false
	}
	if p.Expr != nil {
		if results := match.Find(p.Expr, event, env); len(results) > 0 {
			return results[0].Env, results[0].Expr.Pos(), true
		}
	}
	return nil, token.Pos{}, false
}

// Count returns how many sub-expressions across fn bodies match pat —
// the "Applied" columns of the paper's tables.
func Count(fns []*ast.FuncDecl, pat ast.Expr) int {
	total := 0
	for _, fn := range fns {
		total += len(match.Find(pat, fn, nil))
	}
	return total
}
