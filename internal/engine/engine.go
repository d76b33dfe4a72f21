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
//
// A run's working storage (per-node configuration sets, the work list)
// is scratch that dies with the run, so the fixed-point loop takes it
// from a pool and hands it back emptied: a worker checking function
// after function reuses one scratch instead of allocating one per
// function × checker.
package engine

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

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
	mEvals   = obs.NewCounter("engine_pattern_evals_total", "pattern evaluations: one per rule alternative considered against a node event and one per branch-cond pattern considered against a branch condition, including those the identifier signature rejects before matching")
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
	// in hand (package lint's reachability pass). RunCov ignores it.
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

	// plan caches the runner plan built on the SM's first run; runs
	// revalidate it against Rules and Cond (see planFor).
	plan atomic.Pointer[smPlan]
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
//
// Sets are tiny: over perfbench's cold_suite and edit_loop, 99.9% of
// sets hold one configuration and none holds more than two; no checker
// run in the tests builds one of more than four. So add scans the
// list's keys and builds the idx map only once the set outgrows
// smallSet, which bounds the cost of an unusually wide join. At eight
// members a scan and a map lookup cost the same on keys of this shape;
// past that the map wins (EXPERIMENTS.md).
type configSet struct {
	list []keyedConfig
	idx  map[string]struct{}
}

// keyedConfig is a set member with its key, computed once by add.
type keyedConfig struct {
	key string
	config
}

const smallSet = 8

func (s *configSet) add(c config) bool {
	k := c.key()
	if s.idx != nil {
		if _, ok := s.idx[k]; ok {
			return false
		}
		s.idx[k] = struct{}{}
	} else {
		for _, x := range s.list {
			if x.key == k {
				return false
			}
		}
		if len(s.list) == smallSet {
			s.idx = make(map[string]struct{}, 2*smallSet)
			for _, x := range s.list {
				s.idx[x.key] = struct{}{}
			}
			s.idx[k] = struct{}{}
		}
	}
	s.list = append(s.list, keyedConfig{k, c})
	return true
}

// reset empties s, keeping its storage for the next visit.
func (s *configSet) reset() {
	s.list = s.list[:0]
	s.idx = nil
}

// drop empties s like reset and also zeroes every slot the list has
// ever held, so the kept storage references no configuration.
func (s *configSet) drop() {
	clear(s.list[:cap(s.list)])
	s.reset()
}

func (s *configSet) configs() []keyedConfig { return s.list }

// smPlan is the compile-time shape of one SM: its rules with their
// coverage keys, partitioned by owning state so transfer need not
// rescan every rule per event, its cond keys, and the identifier
// signature (match.Sig) of every rule alternative and cond pattern. It
// depends only on the SM, so it is built once per SM rather than once
// per run.
type smPlan struct {
	// rules is sm.Rules as planned, in order, for fits.
	rules    []plannedRule
	byState  map[string][]plannedRule
	allRules []plannedRule
	conds    []plannedCond
}

// plannedRule is one rule with its coverage key, the State and Tag
// the key and the partition were computed from, and the alternatives
// the signatures were computed from with their signatures.
type plannedRule struct {
	rule       *Rule
	key        string
	state, tag string
	pats       []Pattern
	sigs       []uint64
}

// plannedCond is one cond rule's coverage key and the pattern its
// signature was computed from.
type plannedCond struct {
	key string
	pat ast.Expr
	sig uint64
}

// buildPlan keys and partitions an SM's rules. All-state rules go to
// allRules; transfer fires byState first, then allRules, which keeps
// the SM's firing order (including the degenerate case of a rule
// literally owned by state "all").
func buildPlan(sm *SM) *smPlan {
	p := &smPlan{
		rules:   make([]plannedRule, len(sm.Rules)),
		byState: map[string][]plannedRule{},
		conds:   make([]plannedCond, len(sm.Cond)),
	}
	for i, rule := range sm.Rules {
		pr := plannedRule{rule: rule, key: RuleKey(sm, i), state: rule.State, tag: rule.Tag,
			pats: slices.Clone(rule.Patterns), sigs: make([]uint64, len(rule.Patterns))}
		for j, alt := range rule.Patterns {
			pr.sigs[j] = alt.sig()
		}
		p.rules[i] = pr
		if rule.State == All {
			p.allRules = append(p.allRules, pr)
		} else {
			p.byState[rule.State] = append(p.byState[rule.State], pr)
		}
	}
	for i, cr := range sm.Cond {
		p.conds[i] = plannedCond{key: CondKey(sm, i), pat: cr.Pattern, sig: match.Sig(cr.Pattern)}
	}
	return p
}

// sig is the identifier signature of the alternative evalPattern
// matches: the statement pattern when set, else the expression.
func (p Pattern) sig() uint64 {
	if p.Stmt != nil {
		return match.Sig(p.Stmt)
	}
	if p.Expr != nil {
		return match.Sig(p.Expr)
	}
	return 0
}

// fits reports whether p still describes sm: the same rule pointers in
// the same order with the same State, Tag and pattern alternatives,
// and as many cond rules with the same patterns. Rule keys, the
// partition and the signatures depend on nothing else. It allocates
// nothing.
func (p *smPlan) fits(sm *SM) bool {
	if len(p.rules) != len(sm.Rules) || len(p.conds) != len(sm.Cond) {
		return false
	}
	for i, rule := range sm.Rules {
		pr := &p.rules[i]
		if pr.rule != rule || pr.state != rule.State || pr.tag != rule.Tag || len(pr.pats) != len(rule.Patterns) {
			return false
		}
		for j, alt := range rule.Patterns {
			if pr.pats[j] != alt {
				return false
			}
		}
	}
	for i, cr := range sm.Cond {
		if p.conds[i].pat != cr.Pattern {
			return false
		}
	}
	return true
}

// planFor returns sm's plan, building it on the first run and again
// whenever the SM's rules were edited since (callers may swap, retag
// or add rules between runs). Concurrent first runs may each build
// one; the last to publish wins and every copy is equivalent.
func (sm *SM) planFor() *smPlan {
	if p := sm.plan.Load(); p != nil && p.fits(sm) {
		return p
	}
	p := buildPlan(sm)
	sm.plan.Store(p)
	return p
}

// runner executes one SM over one graph.
type runner struct {
	sm      *SM
	g       *cfg.Graph
	reports []Report
	// seen holds the keys of the reports made so far; it is made on the
	// first report, since most runs make none.
	seen map[string]bool

	// cov tallies rule/state/pattern/cond firings for this run under
	// the plan's coverage keys.
	cov *Coverage

	// plan is the SM's keyed rules partitioned by owning state.
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
	if r.seen == nil {
		r.seen = map[string]bool{}
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

// newRunner builds a runner with its coverage bookkeeping in place:
// every runner carries a Coverage (pathmode and Sim discard theirs)
// and the SM's plan, whose keys it is tallied under.
func newRunner(sm *SM, g *cfg.Graph) *runner {
	return &runner{sm: sm, g: g,
		cov: &Coverage{SM: sm.Name, Fn: g.Fn.Name}, plan: sm.planFor()}
}

// startState resolves the SM's start state for a function ("" skips).
func startState(sm *SM, fn *ast.FuncDecl) string {
	if sm.StartFor != nil {
		return sm.StartFor(fn)
	}
	return sm.Start
}

// RunCov executes sm over g and returns its reports plus the run's
// dynamic coverage: which rules, states, pattern alternatives and
// branch refinements fired. The coverage is never nil (it is Empty
// when the SM skipped the function).
func RunCov(g *cfg.Graph, sm *SM) ([]Report, *Coverage) {
	if startState(sm, g.Fn) == "" {
		return nil, &Coverage{SM: sm.Name, Fn: g.Fn.Name}
	}
	r := newRunner(sm, g)
	r.runToFixpoint()
	return r.reports, r.cov
}

// fixScratch is runToFixpoint's working storage: the per-node out
// sets, the work list, its membership bits and the visit's input set.
// It outlives a run in scratchPool, so a worker that runs one SM over
// many functions reuses the same backing arrays instead of allocating
// one set of them per function × checker. release empties every part,
// so a pooled scratch pins no configuration's env, conds or witness.
type fixScratch struct {
	out    []configSet
	inWork []bool
	work   []*cfg.Node
	in     configSet
}

// scratchPool holds idle scratches. RunCov runs concurrently across
// functions and checkers; each run takes its own.
var scratchPool = &sync.Pool{New: func() any { return new(fixScratch) }}

// getScratch takes a scratch sized for n nodes, growing it only when
// it is too small. Grown out sets keep the lists they already had.
func getScratch(n int) *fixScratch {
	s := scratchPool.Get().(*fixScratch)
	if n > cap(s.out) {
		s.out = append(s.out[:cap(s.out)], make([]configSet, n-cap(s.out))...)
	}
	if n > cap(s.inWork) {
		s.inWork = make([]bool, n)
	}
	s.out, s.inWork = s.out[:n], s.inWork[:n]
	return s
}

// release empties s and returns it to the pool.
func (s *fixScratch) release() {
	for i := range s.out {
		s.out[i].drop()
	}
	s.in.drop()
	clear(s.inWork)
	clear(s.work[:cap(s.work)])
	s.work = s.work[:0]
	scratchPool.Put(s)
}

// runToFixpoint drives the worklist to a fixed point, runs the at-exit
// hooks, and flushes metrics. The caller has already resolved a
// non-empty start state.
func (r *runner) runToFixpoint() {
	g, sm, cov := r.g, r.sm, r.cov
	start := startState(sm, g.Fn)
	s := getScratch(len(g.Nodes))
	defer s.release()

	// out[n] = configurations holding immediately after n's event.
	out, inWork := s.out, s.inWork
	work := append(s.work, g.Entry)
	inWork[g.Entry.ID] = true

	// Seed: entry's transfer on the start configuration.
	seed := config{state: start, env: match.Env{}}
	if c, ok := r.transfer(g.Entry, seed); ok && out[g.Entry.ID].add(c) {
		r.nConfigs++
		cov.hitState(c.state)
	}
	inWork[g.Entry.ID] = false
	for _, e := range g.Entry.Succs {
		if !inWork[e.To.ID] {
			inWork[e.To.ID] = true
			work = append(work, e.To)
		}
	}

	// in gathers one visit's input configurations; each visit resets it.
	in := &s.in
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[n.ID] = false
		if n == g.Entry {
			continue
		}
		// Gather input configs across incoming edges, applying branch
		// refinement when the predecessor is a branch node.
		in.reset()
		for _, e := range n.Preds {
			for _, k := range out[e.From.ID].configs() {
				rc, keep := r.refine(k.config, e)
				if keep {
					in.add(rc)
				}
			}
		}
		changed := false
		for _, k := range in.configs() {
			if nc, ok := r.transfer(n, k.config); ok && out[n.ID].add(nc) {
				r.nConfigs++
				cov.hitState(nc.state)
				changed = true
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
	s.work = work

	if sm.AtExit != nil {
		for _, k := range out[g.Exit.ID].configs() {
			c := k.config
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
	sig := r.g.Sigs[e.From.ID]
	for ci, cr := range r.sm.Cond {
		if cr.State != c.state && cr.State != All {
			continue
		}
		r.nEvals++
		pc := &r.plan.conds[ci]
		if !match.MayMatch(sig, pc.sig) {
			continue
		}
		_, matched, ok := match.First(cr.Pattern, cond, c.env)
		if !ok {
			continue
		}
		r.cov.hitCond(pc.key)
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

// transfer processes node n's event for configuration c. It yields the
// one configuration holding after the event; ok is false when a rule
// moved c to Stop.
func (r *runner) transfer(n *cfg.Node, c config) (config, bool) {
	var event ast.Node
	switch n.Kind {
	case cfg.KindStmt:
		event = n.Stmt
	case cfg.KindBranch:
		event = n.Cond
	default:
		return c, true
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
	sig := r.g.Sigs[n.ID]
	fire := func(rules []plannedRule) (next config, alive, fired bool) {
		for i := range rules {
			pr := &rules[i]
			rule := pr.rule
			env, pos, alt, ok := r.matchRule(pr, event, sig, c.env)
			if !ok {
				continue
			}
			r.nRules++
			r.cov.hitRule(pr.key)
			r.cov.hitPattern(pr.key, alt)
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
				return config{state: c.state, env: r.sm.keepTracked(env), conds: c.conds, trace: tr}, true, true
			case Stop:
				return config{}, false, true
			default:
				return config{state: rule.Target, env: r.sm.envFor(rule.Target, env), conds: c.conds, trace: tr}, true, true
			}
		}
		return config{}, false, false
	}

	if next, alive, fired := fire(r.plan.byState[c.state]); fired {
		return next, alive
	}
	if next, alive, fired := fire(r.plan.allRules); fired {
		return next, alive
	}
	return c, true
}

// matchRule tries each alternative of a planned rule against the
// event, whose signature is sig, skipping the alternatives the
// signature rules out. The int result is the index of the alternative
// that matched, for per-alternative coverage.
func (r *runner) matchRule(pr *plannedRule, event ast.Node, sig uint64, env match.Env) (match.Env, token.Pos, int, bool) {
	for i, p := range pr.pats {
		r.nEvals++
		if !match.MayMatch(sig, pr.sigs[i]) {
			continue
		}
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
			if hit, got, ok := match.First(es.X, event, env); ok {
				return got, hit.Pos(), true
			}
		}
		return nil, token.Pos{}, false
	}
	if p.Expr != nil {
		if hit, got, ok := match.First(p.Expr, event, env); ok {
			return got, hit.Pos(), true
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
