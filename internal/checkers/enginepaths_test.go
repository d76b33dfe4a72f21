package checkers

import (
	"sort"
	"testing"

	"flashmc/internal/core"
	"flashmc/internal/engine"
	"flashmc/internal/flashgen"
	"flashmc/internal/paths"
)

// fuzzPathBudget bounds the entry-to-exit paths one fuzz input walks
// per checker. The path walk is exponential in sequential branches
// and costs about half a millisecond per path and checker, so an input
// compares a window of functions rather than the whole protocol.
const fuzzPathBudget = 200

// reportSet is a report stream as a sorted (position, message)
// multiset: the identity the dataflow and path-walk engines must
// agree on. Witness traces are excluded, because the two engines reach
// a report along different paths.
func reportSet(reports []engine.Report) []string {
	out := make([]string, len(reports))
	for i, r := range reports {
		out[i] = r.Pos.String() + "|" + r.Msg
	}
	sort.Strings(out)
	return out
}

// FuzzEngineVsPaths checks the engine's central claim (paper §3):
// the dataflow fixpoint engine.RunCov reports exactly what the literal
// every-path walk engine.RunPaths reports. For a generated protocol
// (flashgen seed × protocol), it runs the SM of every built-in
// SMProvider checker over a window of functions and requires equal
// (position, message) multisets. The window starts at function
// start (mod the function count) and takes each function, in order and
// wrapping around, whose path count still fits in fuzzPathBudget.
//
// The walk runs on the engine's own transfer and branch refinement,
// so it models every SM option the checkers set: StartFor, Track,
// conditional rules, AtExit and CorrelateBranches. Only SM.Starts is
// not modeled, and RunCov ignores it too (it exists for lint). No option
// is excluded.
func FuzzEngineVsPaths(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(0))
	f.Add(int64(2), uint8(3), uint16(40))
	f.Add(int64(1787569708), uint8(5), uint16(0))
	f.Add(int64(-9000), uint8(250), uint16(100))
	f.Add(int64(1), uint8(2), uint16(0b10101))
	f.Fuzz(func(t *testing.T, seed int64, protoIdx uint8, start uint16) {
		gen := flashgen.Generate(flashgen.Options{Seed: seed})
		if len(gen.Protocols) == 0 {
			t.Skip("no protocols generated")
		}
		p := gen.Protocols[int(protoIdx)%len(gen.Protocols)]
		prog, err := core.Load(p.Name, p.Source(), p.RootFiles)
		if err != nil || len(prog.ParseErrors) > 0 {
			t.Skip("generated protocol failed to load")
		}
		var names []string
		var sms []*engine.SM
		for _, c := range All() {
			if sp, ok := c.(SMProvider); ok {
				sm, _ := sp.BuildSM(p.Spec)
				names = append(names, c.Name())
				sms = append(sms, sm)
			}
		}
		if len(sms) != 6 {
			t.Fatalf("%d SM checkers, want 6", len(sms))
		}
		budget := int64(fuzzPathBudget)
		for i := range prog.Graphs {
			g := prog.Graphs[(int(start)+i)%len(prog.Graphs)]
			n := paths.Analyze(g).Count
			if n > budget {
				continue
			}
			budget -= n
			for m, sm := range sms {
				reports, _ := engine.RunCov(g, sm)
				dataflow := reportSet(reports)
				walk := reportSet(engine.RunPaths(g, sm, int(n)))
				if !equalStrings(dataflow, walk) {
					t.Fatalf("seed %d proto %s fn %s checker %s: dataflow %v != path walk %v",
						seed, p.Name, g.Fn.Name, names[m], dataflow, walk)
				}
			}
		}
	})
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
