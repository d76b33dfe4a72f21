package engine

import "fmt"

// Coverage tallies which parts of one state machine actually fired
// during a run: rules (and which pattern alternative matched), states
// configurations were admitted to, and branch-condition refinements.
// It is the dynamic complement of package lint's static passes — a
// rule lint considers live but that never appears in any Coverage is
// dead on the corpus, the paper's §11 failure mode measured instead
// of inferred.
//
// The count maps serialize to JSON (encoding/json sorts map keys), so
// a Coverage stored in the artifact depot is byte-stable and a warm
// (cached) run reconstructs exactly the coverage the cold run
// measured. Coverage holds counts only: wall time is not
// deterministic and must never leak into depot artifacts.
type Coverage struct {
	// SM is the state machine name (which can differ from the checker
	// registry name — buffer_race runs the wait_for_db machine).
	SM string `json:"sm"`
	// Fn is the function the run covered ("" for whole-program passes).
	Fn string `json:"fn,omitempty"`
	// Rules counts firings per rule key (RuleKey).
	Rules map[string]uint64 `json:"rules,omitempty"`
	// States counts configurations admitted per state.
	States map[string]uint64 `json:"states,omitempty"`
	// Patterns counts matches per pattern alternative ("rule/altN").
	Patterns map[string]uint64 `json:"patterns,omitempty"`
	// Conds counts branch refinements per CondRule key (CondKey).
	Conds map[string]uint64 `json:"conds,omitempty"`
}

// RuleKey names rule i of sm in coverage maps and diagnostics: the
// rule's tag when set, else "state#i" — the same label package lint
// uses, so static and dynamic views of a rule join on one key.
func RuleKey(sm *SM, i int) string {
	r := sm.Rules[i]
	if r.Tag != "" {
		return r.Tag
	}
	return fmt.Sprintf("%s#%d", r.State, i)
}

// CondKey names branch-condition rule i of sm.
func CondKey(sm *SM, i int) string {
	return fmt.Sprintf("cond#%d", i)
}

// Empty reports whether nothing fired: no rules, states, patterns, or
// refinements. Empty coverages are not stored in depot artifacts, so
// warm and cold runs skip them identically.
func (c *Coverage) Empty() bool {
	if c == nil {
		return true
	}
	return len(c.Rules) == 0 && len(c.States) == 0 &&
		len(c.Patterns) == 0 && len(c.Conds) == 0
}

// bump increments m[k], allocating the map on first use so empty
// sections marshal as absent rather than "{}".
func bump(m *map[string]uint64, k string, n uint64) {
	if *m == nil {
		*m = map[string]uint64{}
	}
	(*m)[k] += n
}

func (c *Coverage) hitRule(key string)    { bump(&c.Rules, key, 1) }
func (c *Coverage) hitState(state string) { bump(&c.States, state, 1) }
func (c *Coverage) hitPattern(rule string, alt int) {
	bump(&c.Patterns, fmt.Sprintf("%s/alt%d", rule, alt), 1)
}
func (c *Coverage) hitCond(key string) { bump(&c.Conds, key, 1) }

// ReportCoverage synthesizes rule coverage for passes that do not run
// an SM (AST walks, the lane traversal): one firing per report, keyed
// by the report's rule. The counterpart of Witness for coverage.
func ReportCoverage(sm string, reports []Report) *Coverage {
	c := &Coverage{SM: sm}
	for _, r := range reports {
		if r.Rule != "" {
			c.hitRule(r.Rule)
		}
	}
	return c
}
