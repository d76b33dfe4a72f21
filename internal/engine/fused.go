package engine

import "flashmc/internal/cfg"

// Fused groups several member SMs so one call checks a function with
// all of them. Members run one after another, each through its own
// RunCov, exactly as xg++ applies extensions in sequence; the group
// exists so callers holding a fixed member list can pass an active
// mask instead of re-selecting SMs per function.
type Fused struct {
	Members []*SM
}

// CompileFused groups member SMs. Member order is the order RunCov
// returns results in.
func CompileFused(members ...*SM) *Fused {
	return &Fused{Members: members}
}

// RunCov runs every active member over g, in member order, and returns
// per-member reports and coverage, each exactly what RunCov(g, member)
// returns. active==nil runs every member; an inactive member gets nil
// reports and nil coverage.
func (f *Fused) RunCov(g *cfg.Graph, active []bool) ([][]Report, []*Coverage) {
	reports := make([][]Report, len(f.Members))
	covs := make([]*Coverage, len(f.Members))
	for m, sm := range f.Members {
		if active == nil || active[m] {
			reports[m], covs[m] = RunCov(g, sm)
		}
	}
	return reports, covs
}
