package paper

import (
	"fmt"
	"sort"
	"strings"

	"flashmc/internal/checkers"
	"flashmc/internal/flashgen"
	"flashmc/internal/flashsim"
)

// SDResult compares static checking against dynamic testing for one
// protocol: how many of the seeded real bugs each approach finds, and
// how long the simulator needed.
type SDResult struct {
	Protocol     string
	SeededErrors int
	StaticFound  int
	DynamicFound int
	Trials       int
	// FirstTrials lists, per dynamically found bug, the trial at which
	// it first surfaced (sorted ascending).
	FirstTrials []int
	// DynamicMissed lists seeded bugs the simulator never triggered.
	DynamicMissed []flashgen.Site
}

// MedianFirstTrial returns the median detection latency (0 if none).
func (r SDResult) MedianFirstTrial() int {
	if len(r.FirstTrials) == 0 {
		return 0
	}
	return r.FirstTrials[len(r.FirstTrials)/2]
}

func (r SDResult) String() string {
	return fmt.Sprintf("%-10s seeded %2d | static %2d | dynamic %2d/%d trials (median first hit %d)",
		r.Protocol, r.SeededErrors, r.StaticFound, r.DynamicFound, r.Trials, r.MedianFirstTrial())
}

// StaticVsDynamic reproduces the paper's §2/§11 claim: the corner-case
// bugs the checkers pinpoint statically surface only sporadically (or
// never) under randomized dynamic testing. It runs every error-finding
// checker and a fuzzing campaign of the given length over each
// protocol and scores both against the seeded ClassError sites.
func (c *Corpus) StaticVsDynamic(trials int, seed int64) []SDResult {
	suite := []checkers.Checker{
		checkers.NewBufferRace(),
		checkers.NewMsglen(),
		checkers.NewBufferMgmt(),
		checkers.NewLanes(),
		checkers.NewDirectory(),
	}
	var out []SDResult
	for _, p := range c.Gen.Protocols {
		prog := c.Programs[p.Name]
		res := SDResult{Protocol: p.Name, Trials: trials}

		// Seeded real bugs.
		type key struct {
			file string
			line int
		}
		seeded := map[key]flashgen.Site{}
		for _, s := range p.Manifest {
			if s.Class == flashgen.ClassError {
				seeded[key{s.File, s.Line}] = s
				res.SeededErrors++
			}
		}

		// Static pass.
		staticHit := map[key]bool{}
		for _, chk := range suite {
			reports, _ := chk.CheckCov(prog, p.Spec)
			for _, r := range reports {
				k := key{r.Pos.File, r.Pos.Line}
				if _, ok := seeded[k]; ok {
					staticHit[k] = true
				}
			}
		}
		res.StaticFound = len(staticHit)

		// Dynamic pass.
		fz := flashsim.Fuzz(prog, p.Spec, trials, seed)
		byLine := fz.ByLine()
		for k, s := range seeded {
			if d, ok := byLine[fmt.Sprintf("%s:%d", k.file, k.line)]; ok {
				res.DynamicFound++
				res.FirstTrials = append(res.FirstTrials, d.FirstTrial)
			} else {
				res.DynamicMissed = append(res.DynamicMissed, s)
			}
		}
		sort.Ints(res.FirstTrials)
		sort.Slice(res.DynamicMissed, func(i, j int) bool {
			a, b := res.DynamicMissed[i], res.DynamicMissed[j]
			return a.File+fmt.Sprint(a.Line) < b.File+fmt.Sprint(b.Line)
		})
		out = append(out, res)
	}
	return out
}

// RenderStaticVsDynamic formats the experiment like the EXPERIMENTS.md
// entry.
func RenderStaticVsDynamic(results []SDResult) string {
	var b strings.Builder
	b.WriteString("static vs dynamic detection of the 34 seeded bugs\n")
	totalSeeded, totalStatic, totalDyn := 0, 0, 0
	for _, r := range results {
		fmt.Fprintf(&b, "  %s\n", r)
		totalSeeded += r.SeededErrors
		totalStatic += r.StaticFound
		totalDyn += r.DynamicFound
	}
	fmt.Fprintf(&b, "  total      seeded %2d | static %2d | dynamic %2d\n",
		totalSeeded, totalStatic, totalDyn)
	return b.String()
}
