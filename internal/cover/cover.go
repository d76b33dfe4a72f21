// Package cover accumulates per-run engine.Coverage into per-checker
// totals: which rules, states, pattern alternatives and branch
// refinements of each checker ever fire.
//
// The paper evaluates checkers by what they catch on the five FLASH
// protocols (Table 7); this package measures the complementary
// question — what each checker actually *exercises* — so a rule that
// lint considers live but that never fires anywhere can be flagged
// (the coverage-dead diagnostic in internal/lint).
//
// A Set holds fire counts only. Snapshot() renders them as byte-stable
// JSON (the "coverage/v1" artifact), identical across -j levels and
// warm/cold depot runs. Where the time went is answered elsewhere:
// -explain's per-artifact wall cost, trace spans, and pprof.
package cover

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"flashmc/internal/engine"
)

// Kind identifies the coverage artifact schema.
const Kind = "coverage/v1"

// CheckerCov is one checker's merged dynamic coverage.
type CheckerCov struct {
	// SM is the state machine the checker runs (often but not always
	// the checker name — buffer_race runs wait_for_db).
	SM string `json:"sm,omitempty"`
	// Runs counts the non-empty per-function runs merged in.
	Runs uint64 `json:"runs"`
	// Rules, States, Patterns, Conds are summed fire counts keyed the
	// same way engine.Coverage keys them.
	Rules    map[string]uint64 `json:"rules,omitempty"`
	States   map[string]uint64 `json:"states,omitempty"`
	Patterns map[string]uint64 `json:"patterns,omitempty"`
	Conds    map[string]uint64 `json:"conds,omitempty"`
}

// Artifact is the serializable coverage snapshot. encoding/json sorts
// map keys, so marshaling an Artifact is deterministic for equal
// counts regardless of merge order.
type Artifact struct {
	Kind     string                 `json:"kind"`
	Checkers map[string]*CheckerCov `json:"checkers"`
}

// Set is a thread-safe coverage accumulator. The zero value is not
// usable; call NewSet.
type Set struct {
	mu       sync.Mutex
	checkers map[string]*CheckerCov
}

// NewSet returns an empty accumulator.
func NewSet() *Set {
	return &Set{checkers: map[string]*CheckerCov{}}
}

func addInto(dst *map[string]uint64, src map[string]uint64) {
	if len(src) == 0 {
		return
	}
	if *dst == nil {
		*dst = map[string]uint64{}
	}
	for k, v := range src {
		(*dst)[k] += v
	}
}

// Record merges one run's coverage under the given checker id. Empty
// coverages are dropped entirely (they are also never stored in depot
// artifacts, which keeps warm and cold runs in lockstep). Counts
// merge additively, so the result is independent of recording order —
// the property the -j determinism gate tests.
func (s *Set) Record(checker string, cov *engine.Coverage) {
	if s == nil || cov.Empty() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	acc := s.checkers[checker]
	if acc == nil {
		acc = &CheckerCov{}
		s.checkers[checker] = acc
	}
	if acc.SM == "" {
		acc.SM = cov.SM
	}
	acc.Runs++
	addInto(&acc.Rules, cov.Rules)
	addInto(&acc.States, cov.States)
	addInto(&acc.Patterns, cov.Patterns)
	addInto(&acc.Conds, cov.Conds)
}

// Snapshot returns the merged fire counts per checker, as a
// coverage/v1 artifact. The maps are deep copies; the caller may
// mutate them.
func (s *Set) Snapshot() *Artifact {
	a := &Artifact{Kind: Kind, Checkers: map[string]*CheckerCov{}}
	if s == nil {
		return a
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, acc := range s.checkers {
		c := &CheckerCov{SM: acc.SM, Runs: acc.Runs}
		addInto(&c.Rules, acc.Rules)
		addInto(&c.States, acc.States)
		addInto(&c.Patterns, acc.Patterns)
		addInto(&c.Conds, acc.Conds)
		a.Checkers[name] = c
	}
	return a
}

// Fired returns a copy of the merged rule fire counts for one checker
// (nil when the checker never recorded anything). This is the join
// point for the lint coverage-dead cross-check.
func (s *Set) Fired(checker string) map[string]uint64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	acc := s.checkers[checker]
	if acc == nil {
		return nil
	}
	var out map[string]uint64
	addInto(&out, acc.Rules)
	return out
}

// CondsFired is Fired for branch-condition rules.
func (s *Set) CondsFired(checker string) map[string]uint64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	acc := s.checkers[checker]
	if acc == nil {
		return nil
	}
	var out map[string]uint64
	addInto(&out, acc.Conds)
	return out
}

// WriteJSON writes the artifact as indented, deterministic JSON.
func (a *Artifact) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// Validate parses and checks a coverage artifact: the kind must be
// coverage/v1, every checker entry must have a non-empty name and
// positive counts, and every pattern alternative must belong to a
// fired rule. Returns the number of checker entries.
func Validate(r io.Reader) (int, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var a Artifact
	if err := dec.Decode(&a); err != nil {
		return 0, fmt.Errorf("coverage: %w", err)
	}
	if a.Kind != Kind {
		return 0, fmt.Errorf("coverage: kind %q, want %q", a.Kind, Kind)
	}
	for name, c := range a.Checkers {
		if name == "" {
			return 0, fmt.Errorf("coverage: empty checker name")
		}
		if c == nil {
			return 0, fmt.Errorf("coverage: checker %s: null entry", name)
		}
		for section, m := range map[string]map[string]uint64{
			"rules": c.Rules, "states": c.States,
			"patterns": c.Patterns, "conds": c.Conds,
		} {
			for k, v := range m {
				if k == "" {
					return 0, fmt.Errorf("coverage: checker %s: empty %s key", name, section)
				}
				if v == 0 {
					return 0, fmt.Errorf("coverage: checker %s: %s[%s] is zero (zero counts must be absent)", name, section, k)
				}
			}
		}
		for p := range c.Patterns {
			rule, ok := splitAlt(p)
			if !ok {
				return 0, fmt.Errorf("coverage: checker %s: malformed pattern key %q", name, p)
			}
			if c.Rules[rule] == 0 {
				return 0, fmt.Errorf("coverage: checker %s: pattern %q for unfired rule %q", name, p, rule)
			}
		}
	}
	return len(a.Checkers), nil
}

// splitAlt splits a "rule/altN" pattern key into its rule part.
func splitAlt(p string) (string, bool) {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			rest := p[i+1:]
			if len(rest) > 3 && rest[:3] == "alt" {
				return p[:i], true
			}
			return "", false
		}
	}
	return "", false
}
