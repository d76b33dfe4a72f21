package checkers

import (
	"bytes"
	"encoding/json"
	"testing"

	"flashmc/internal/core"
	"flashmc/internal/engine"
	"flashmc/internal/flashgen"
)

// renderSM serializes one checker's reports and coverage for byte
// comparison (Coverage timing fields are excluded from JSON, so the
// rendering is deterministic).
func renderSM(t *testing.T, reports []engine.Report, covs []*engine.Coverage) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Reports  []engine.Report
		Coverage []*engine.Coverage
	}{reports, covs})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzFusedSuite checks engine.CompileFused over the SM of every
// built-in SM checker against generated protocol programs: per member,
// the per-function results gathered in function order must be
// byte-identical to core.RunSMCov of that member alone, and a member
// switched off in the active mask (bit m of off) must get nil reports
// and nil coverage for every function.
func FuzzFusedSuite(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(0))
	f.Add(int64(2), uint8(3), uint16(0))
	f.Add(int64(1787569708), uint8(5), uint16(0))
	f.Add(int64(-9000), uint8(250), uint16(0))
	f.Add(int64(1), uint8(2), uint16(0b10101))
	f.Fuzz(func(t *testing.T, seed int64, protoIdx uint8, off uint16) {
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
		active := make([]bool, len(sms))
		for m := range active {
			active[m] = off&(1<<m) == 0
		}
		fused := engine.CompileFused(sms...)
		reports := make([][]engine.Report, len(sms))
		covs := make([][]*engine.Coverage, len(sms))
		for _, g := range prog.Graphs {
			reps, cs := fused.RunCov(g, active)
			for m := range sms {
				if !active[m] {
					if reps[m] != nil || cs[m] != nil {
						t.Fatalf("seed %d proto %s fn %s: inactive member %s ran", seed, p.Name, g.Fn.Name, names[m])
					}
					continue
				}
				reports[m] = append(reports[m], reps[m]...)
				if !cs[m].Empty() {
					covs[m] = append(covs[m], cs[m])
				}
			}
		}
		for m, sm := range sms {
			if !active[m] {
				continue
			}
			wantReports, wantCovs := prog.RunSMCov(sm)
			got := renderSM(t, reports[m], covs[m])
			want := renderSM(t, wantReports, wantCovs)
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d proto %s checker %s: CompileFused output diverged from RunSMCov:\nfused: %s\nsequential: %s",
					seed, p.Name, names[m], got, want)
			}
		}
	})
}
