package lint

import (
	"fmt"
	"sort"

	"flashmc/internal/cc/ast"
	"flashmc/internal/engine"
	"flashmc/internal/metal"
)

// Target bundles one state machine with the optional metadata the SM
// passes can exploit: metal wildcard declarations (for the
// unused-wildcard pass) and a protocol vocabulary (for the
// dead-pattern pass).
type Target struct {
	SM *engine.SM
	// Decls maps declared wildcard names to constraints, as recorded
	// by the metal compiler. Nil for SMs assembled in Go, which have
	// no declaration syntax to check.
	Decls map[string]string
	// Vocab enables the dead-pattern pass when non-nil.
	Vocab *Vocab
}

// CheckSM runs every SM-level pass over t and returns the findings,
// most severe first.
func CheckSM(t Target) []Diag {
	var diags []Diag
	diags = append(diags, checkReachability(t.SM)...)
	diags = append(diags, checkRuleOrder(t.SM)...)
	diags = append(diags, checkAbsorbing(t.SM)...)
	diags = append(diags, checkUnusedWildcards(t.SM, t.Decls)...)
	diags = append(diags, checkVocabulary(t.SM, t.Vocab)...)
	sortDiags(diags)
	return diags
}

// CheckMetal lints a compiled metal program: CheckSM plus the metal
// declaration table.
func CheckMetal(p *metal.Program, v *Vocab) []Diag {
	return CheckSM(Target{SM: p.SM, Decls: p.Decls, Vocab: v})
}

// ruleLabel names a rule in diagnostics.
func ruleLabel(sm *engine.SM, r *engine.Rule) string {
	if r.Tag != "" {
		return r.Tag
	}
	for i, cand := range sm.Rules {
		if cand == r {
			return fmt.Sprintf("%s#%d", r.State, i)
		}
	}
	return r.State + "#?"
}

// patText renders a pattern for diagnostics.
func patText(p engine.Pattern) string {
	if p.Expr != nil {
		return ast.ExprString(p.Expr)
	}
	return ast.StmtString(p.Stmt)
}

// startStates returns the set of possible initial states, and false
// when it cannot be determined statically (StartFor with no Starts
// hint).
func startStates(sm *engine.SM) ([]string, bool) {
	if len(sm.Starts) > 0 {
		return sm.Starts, true
	}
	if sm.StartFor != nil {
		return nil, false
	}
	if sm.Start != "" {
		return []string{sm.Start}, true
	}
	return nil, false
}

// checkReachability flags states owning rules that no chain of rule
// or branch-condition transitions can reach from any start state. A
// configuration can never be in such a state, so its rules are dead —
// the checker looks healthy and silently skips them (paper §11).
func checkReachability(sm *engine.SM) []Diag {
	starts, known := startStates(sm)
	if !known {
		return nil
	}

	// Successor states of s under every applicable rule.
	succs := func(s string) []string {
		var out []string
		step := func(owner, target string) {
			if owner != s && owner != engine.All {
				return
			}
			switch target {
			case "", engine.Stop:
			default:
				out = append(out, target)
			}
		}
		for _, r := range sm.Rules {
			step(r.State, r.Target)
		}
		for _, c := range sm.Cond {
			step(c.State, c.TrueTarget)
			step(c.State, c.FalseTarget)
		}
		return out
	}

	reach := map[string]bool{}
	work := append([]string(nil), starts...)
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		if reach[s] {
			continue
		}
		reach[s] = true
		work = append(work, succs(s)...)
	}

	owners := map[string]bool{}
	for _, r := range sm.Rules {
		owners[r.State] = true
	}
	for _, c := range sm.Cond {
		owners[c.State] = true
	}
	var diags []Diag
	var names []string
	for s := range owners {
		names = append(names, s)
	}
	sort.Strings(names)
	for _, s := range names {
		if s == engine.All || s == engine.Stop || reach[s] {
			continue
		}
		diags = append(diags, Diag{
			Pass: "unreachable-state", Severity: Error,
			SM: sm.Name, State: s,
			Msg: fmt.Sprintf("state %q is unreachable from start state(s) %v; its rules can never fire", s, starts),
		})
	}
	return diags
}

// checkRuleOrder compares every pair of same-state rules. Within a
// state the engine fires the first matching rule (see package engine's
// TestSameStateRuleDeclarationOrder), so:
//
//   - an earlier rule subsuming a later one makes the later rule dead
//     (Error — it can never fire);
//   - a later rule subsuming an earlier one is the deliberate
//     specific-before-general idiom, but still order-sensitive (Info);
//   - plain overlap without subsumption means some events are decided
//     purely by declaration order (Warn).
func checkRuleOrder(sm *engine.SM) []Diag {
	byState := map[string][]*engine.Rule{}
	var states []string
	for _, r := range sm.Rules {
		if _, ok := byState[r.State]; !ok {
			states = append(states, r.State)
		}
		byState[r.State] = append(byState[r.State], r)
	}

	var diags []Diag
	for _, state := range states {
		rules := byState[state]
		for j := 1; j < len(rules); j++ {
			rj := rules[j]
			// shadowedBy[k] records which earlier rule (if any) makes
			// alternative k of rj dead.
			shadowedBy := make([]*engine.Rule, len(rj.Patterns))
			for i := 0; i < j; i++ {
				ri := rules[i]
				pairSeverity := -1 // none / 0 info / 1 warn
				for _, pi := range ri.Patterns {
					for k, pj := range rj.Patterns {
						switch {
						case subsumesPattern(pi, pj):
							if shadowedBy[k] == nil {
								shadowedBy[k] = ri
							}
						case subsumesPattern(pj, pi):
							if pairSeverity < 0 {
								pairSeverity = 0
							}
						case overlapsPattern(pi, pj):
							pairSeverity = 1
						}
					}
				}
				switch pairSeverity {
				case 0:
					diags = append(diags, Diag{
						Pass: "rule-order", Severity: Info,
						SM: sm.Name, State: state, Rule: ruleLabel(sm, rj),
						Msg: fmt.Sprintf("rule %s is more general than earlier rule %s: specific-before-general order is load-bearing (reordering changes which rule fires)",
							ruleLabel(sm, rj), ruleLabel(sm, ri)),
					})
				case 1:
					diags = append(diags, Diag{
						Pass: "rule-order", Severity: Warn,
						SM: sm.Name, State: state, Rule: ruleLabel(sm, rj),
						Msg: fmt.Sprintf("rules %s and %s overlap on common events; whichever is declared first wins",
							ruleLabel(sm, ri), ruleLabel(sm, rj)),
					})
				}
			}

			dead := len(rj.Patterns) > 0
			for k, by := range shadowedBy {
				if by == nil {
					dead = false
					continue
				}
				suffix := ""
				if by.Target == engine.Stop {
					suffix = " (which stops the configuration)"
				}
				diags = append(diags, Diag{
					Pass: "shadowed-rule", Severity: Warn,
					SM: sm.Name, State: state, Rule: ruleLabel(sm, rj),
					Msg: fmt.Sprintf("pattern %q of rule %s is shadowed by earlier rule %s%s",
						patText(rj.Patterns[k]), ruleLabel(sm, rj), ruleLabel(sm, by), suffix),
				})
			}
			if dead {
				diags = append(diags, Diag{
					Pass: "shadowed-rule", Severity: Error,
					SM: sm.Name, State: state, Rule: ruleLabel(sm, rj),
					Msg: fmt.Sprintf("rule %s is dead: every alternative is shadowed by an earlier rule in state %q, so it can never fire",
						ruleLabel(sm, rj), state),
				})
			}
		}
	}
	return diags
}

// checkAbsorbing flags target states that own no rules: a
// configuration entering one can never leave or fire anything again,
// which usually means a misspelled state name. Skipped when the SM has
// an at-exit hook, where a rule-less state is a legitimate terminal
// classification the hook inspects.
func checkAbsorbing(sm *engine.SM) []Diag {
	if sm.AtExit != nil {
		return nil
	}
	owners := map[string]bool{engine.Stop: true, engine.All: true, "": true}
	for _, r := range sm.Rules {
		owners[r.State] = true
	}
	for _, c := range sm.Cond {
		owners[c.State] = true
	}
	seen := map[string]bool{}
	var diags []Diag
	flag := func(target string) {
		if owners[target] || seen[target] {
			return
		}
		seen[target] = true
		diags = append(diags, Diag{
			Pass: "absorbing-state", Severity: Warn,
			SM: sm.Name, State: target,
			Msg: fmt.Sprintf("target state %q owns no rules: configurations entering it are stuck and the checker silently stops applying", target),
		})
	}
	for _, r := range sm.Rules {
		flag(r.Target)
	}
	for _, c := range sm.Cond {
		flag(c.TrueTarget)
		flag(c.FalseTarget)
	}
	return diags
}

// checkUnusedWildcards flags wildcards declared in a metal program
// but never bound by any pattern — usually the leftover of a renamed
// pattern variable.
func checkUnusedWildcards(sm *engine.SM, decls map[string]string) []Diag {
	if decls == nil {
		return nil
	}
	used := map[string]bool{}
	record := func(n ast.Node) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(x ast.Node) bool {
			if w, ok := x.(*ast.Wildcard); ok {
				used[w.Name] = true
			}
			return true
		})
	}
	for _, r := range sm.Rules {
		for _, p := range r.Patterns {
			if p.Expr != nil {
				record(p.Expr)
			} else {
				record(p.Stmt)
			}
		}
	}
	for _, c := range sm.Cond {
		record(c.Pattern)
	}

	var names []string
	for n := range decls {
		names = append(names, n)
	}
	sort.Strings(names)
	var diags []Diag
	for _, n := range names {
		if used[n] {
			continue
		}
		diags = append(diags, Diag{
			Pass: "unused-wildcard", Severity: Warn,
			SM:  sm.Name,
			Msg: fmt.Sprintf("wildcard %q is declared but never bound by any pattern", n),
		})
	}
	return diags
}

// checkVocabulary flags patterns anchored on identifiers outside the
// protocol vocabulary. Such a pattern can never match real protocol
// code, so the rule is dead — exactly the §11 failure mode where a
// typo (or a vocabulary drift) blinds a checker without any visible
// symptom.
func checkVocabulary(sm *engine.SM, vocab *Vocab) []Diag {
	if vocab == nil || vocab.Len() == 0 {
		return nil
	}
	var diags []Diag
	check := func(rule, state, text string, n ast.Node) {
		seen := map[string]bool{}
		ast.Inspect(n, func(x ast.Node) bool {
			name := ""
			switch y := x.(type) {
			case *ast.Ident:
				name = y.Name
			case *ast.Member:
				name = y.Name
			}
			if name == "" || seen[name] || vocab.Has(name) {
				return true
			}
			seen[name] = true
			diags = append(diags, Diag{
				Pass: "dead-pattern", Severity: Error,
				SM: sm.Name, State: state, Rule: rule,
				Msg: fmt.Sprintf("pattern %q names %q, which is not in the protocol vocabulary: the pattern can never match, so the rule is silently dead", text, name),
			})
			return true
		})
	}
	for _, r := range sm.Rules {
		for _, p := range r.Patterns {
			if p.Expr != nil {
				check(ruleLabel(sm, r), r.State, patText(p), p.Expr)
			} else if p.Stmt != nil {
				check(ruleLabel(sm, r), r.State, patText(p), p.Stmt)
			}
		}
	}
	for _, c := range sm.Cond {
		check("cond", c.State, ast.ExprString(c.Pattern), c.Pattern)
	}
	return diags
}
