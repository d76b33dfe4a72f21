package engine

import (
	"flashmc/internal/cc/ast"
	"flashmc/internal/cfg"
	"flashmc/internal/match"
)

// Sim is a single-configuration stepper exposing the engine's
// refinement hooks: the same transfer and branch-refinement logic RunCov
// and RunPaths use, driven one node or edge at a time by an external
// path enumerator. Package lint's report-triage passes use it to
// replay a state machine along individual sliced paths and decide
// whether a report can arise on any feasible one.
//
// A Sim accumulates reports across steps exactly like a run does
// (deduplicated by rule, position and message); create one Sim per
// replayed path to observe per-path reports.
type Sim struct {
	r     *runner
	start string
}

// Config is one SM configuration held by an external driver. The zero
// Config is invalid; obtain one from Start.
type Config struct {
	c config
}

// State returns the configuration's SM state.
func (c Config) State() string { return c.c.state }

// NewSim prepares a stepper for sm over g.
func NewSim(g *cfg.Graph, sm *SM) *Sim {
	start := sm.Start
	if sm.StartFor != nil {
		start = sm.StartFor(g.Fn)
	}
	return &Sim{r: newRunner(sm, g), start: start}
}

// Start returns the initial configuration. ok is false when the SM
// skips this function entirely (StartFor returned "").
func (s *Sim) Start() (Config, bool) {
	if s.start == "" {
		return Config{}, false
	}
	return Config{config{state: s.start, env: match.Env{}}}, true
}

// Transfer processes node n's event for c, firing rule actions. ok is
// false when the configuration was killed (a rule moved it to Stop).
func (s *Sim) Transfer(n *cfg.Node, c Config) (Config, bool) {
	out, ok := s.r.transfer(n, c.c)
	if !ok {
		return Config{}, false
	}
	return Config{out}, true
}

// Refine applies branch-condition rules (and the SM's own
// correlated-branch pruner, when enabled) to c crossing edge e. ok is
// false when the configuration was pruned or stopped.
func (s *Sim) Refine(e *cfg.Edge, c Config) (Config, bool) {
	out, keep := s.r.refine(c.c, e)
	return Config{out}, keep
}

// AtExit runs the SM's at-exit hook (if any) for a configuration that
// reached the function exit.
func (s *Sim) AtExit(c Config) {
	if s.r.sm.AtExit == nil {
		return
	}
	g := s.r.g
	ctx := &Ctx{Env: c.c.env, Node: g.Exit, MatchPos: g.Exit.Pos(),
		State: c.c.state, eng: s.r, ruleTag: "at-exit", trace: c.c.trace}
	s.r.sm.AtExit(ctx)
}

// Reports returns the reports fired so far.
func (s *Sim) Reports() []Report { return s.r.reports }

// StripNegation removes parentheses and top-level logical negations
// from a branch condition, reporting whether an odd number of
// negations was stripped. It is the normalization Refine applies to
// branch conditions, exported so analyses layered on the engine (the
// lint triage passes) correlate conditions the same way.
func StripNegation(e ast.Expr) (ast.Expr, bool) { return stripNot(e) }
