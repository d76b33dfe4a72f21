package engine

import (
	"flashmc/internal/cfg"
	"flashmc/internal/match"
	"flashmc/internal/paths"
)

// RunPaths executes sm the way the paper describes xg++ literally
// doing it: walking every entry-to-exit path (loops taken at most
// once) and advancing one configuration along each. It exists for
// differential testing against RunCov and for the ablation benchmark; on
// functions with many sequential branches it is exponentially slower.
// At most limit paths are walked.
func RunPaths(g *cfg.Graph, sm *SM, limit int) []Report {
	start := sm.Start
	if sm.StartFor != nil {
		start = sm.StartFor(g.Fn)
	}
	if start == "" {
		return nil
	}
	r := newRunner(sm, g)
	for _, path := range paths.Enumerate(g, limit) {
		r.nPaths++
		c := config{state: start, env: match.Env{}}
		alive := true
		for i, n := range path {
			if !alive {
				break
			}
			// Branch refinement applies on the edge taken from the
			// previous node when it was a branch.
			if i > 0 && path[i-1].Kind == cfg.KindBranch {
				var edge *cfg.Edge
				for _, e := range path[i-1].Succs {
					if e.To == n {
						edge = e
						break
					}
				}
				if edge != nil {
					var keep bool
					c, keep = r.refine(c, edge)
					if !keep {
						alive = false
						break
					}
				}
			}
			next, ok := r.transfer(n, c)
			if !ok {
				alive = false
				break
			}
			c = next
		}
		if alive && sm.AtExit != nil {
			ctx := &Ctx{Env: c.env, Node: g.Exit, MatchPos: g.Exit.Pos(),
				State: c.state, eng: r, ruleTag: "at-exit", trace: c.trace}
			sm.AtExit(ctx)
		}
	}
	r.flushMetrics()
	return r.reports
}
