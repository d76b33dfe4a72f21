package paper

import (
	"fmt"
	"io"
	"sort"

	"flashmc/internal/checkers"
	"flashmc/internal/cover"
	"flashmc/internal/lint"
)

// CoverageMatrix is the per-checker × per-protocol dynamic coverage of
// the corpus: for every built-in checker, which rules fired on which
// protocol, plus the merged totals used by the lint cross-check.
type CoverageMatrix struct {
	// Protocols in corpus (generation) order.
	Protocols []string
	// Checkers in checkers.All() order.
	Checkers []string
	// ByProto holds one coverage artifact per protocol.
	ByProto map[string]*cover.Artifact
	// Merged is the union across all protocols.
	Merged *cover.Artifact

	merged *cover.Set
}

// Coverage runs every built-in checker over every corpus protocol with
// coverage recording (checkers.Checker.CheckCov) and returns the
// resulting matrix. It also serves as the corpus-level acceptance run:
// a checker that records nothing anywhere shows up as an all-zero row.
func (c *Corpus) Coverage() *CoverageMatrix {
	m := &CoverageMatrix{ByProto: map[string]*cover.Artifact{}}
	for _, chk := range checkers.All() {
		m.Checkers = append(m.Checkers, chk.Name())
	}
	merged := cover.NewSet()
	for _, p := range c.Gen.Protocols {
		m.Protocols = append(m.Protocols, p.Name)
		set := cover.NewSet()
		for _, chk := range checkers.All() {
			_, covs := chk.CheckCov(c.Programs[p.Name], p.Spec)
			for _, cv := range covs {
				set.Record(chk.Name(), cv)
				merged.Record(chk.Name(), cv)
			}
		}
		m.ByProto[p.Name] = set.Snapshot()
	}
	m.Merged = merged.Snapshot()
	m.merged = merged
	return m
}

// Fires returns the total rule firings of one checker on one protocol
// (the matrix cell).
func (m *CoverageMatrix) Fires(checker, proto string) uint64 {
	a := m.ByProto[proto]
	if a == nil {
		return 0
	}
	c := a.Checkers[checker]
	if c == nil {
		return 0
	}
	var n uint64
	for _, v := range c.Rules {
		n += v
	}
	return n
}

// CoverageDead cross-checks the matrix against the static lint passes:
// for every SM-based checker it builds the SM under each protocol's
// spec and asks lint.CoverageDead which statically-live rules fired on
// *no* protocol (the merged counts). Diags are deduplicated by
// (SM, rule) across spec builds — a rule is reported once even when
// every protocol's spec compiles it — and a rule that exists only
// under some specs is still reported if it never fired anywhere.
func (c *Corpus) CoverageDead(m *CoverageMatrix) []lint.Diag {
	seen := map[string]bool{}
	var out []lint.Diag
	for _, p := range c.Gen.Protocols {
		for _, chk := range checkers.All() {
			prov, ok := chk.(checkers.SMProvider)
			if !ok {
				continue
			}
			sm, decls := prov.BuildSM(p.Spec)
			fired := m.merged.Fired(chk.Name())
			conds := m.merged.CondsFired(chk.Name())
			for _, d := range lint.CoverageDead(lint.Target{SM: sm, Decls: decls}, fired, conds) {
				key := d.SM + "\x00" + d.Rule
				if seen[key] {
					continue
				}
				seen[key] = true
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SM != out[j].SM {
			return out[i].SM < out[j].SM
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

// WriteTable renders the matrix as checkers × protocols, one cell per
// (checker, protocol) holding the total rule firings there.
func (m *CoverageMatrix) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%-16s", "CHECKER")
	for _, p := range m.Protocols {
		fmt.Fprintf(w, " %10s", p)
	}
	fmt.Fprintln(w)
	for _, chk := range m.Checkers {
		fmt.Fprintf(w, "%-16s", chk)
		for _, p := range m.Protocols {
			fmt.Fprintf(w, " %10d", m.Fires(chk, p))
		}
		fmt.Fprintln(w)
	}
}
