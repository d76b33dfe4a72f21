package main

// -explain: per-report provenance, printed to stderr after each report.

import (
	"fmt"
	"os"

	"flashmc/internal/depot"
	"flashmc/internal/sched"
)

// explainReport prints one report's lineage: the artifact it came
// from (its key names the checker, version and source fingerprint),
// this run's cache decision for that artifact, and — when the
// provenance sidecar exists — who produced it, from how many inputs,
// and at what cost.
func explainReport(store *depot.Depot, res *sched.Result, ri int) {
	r := res.Reports[ri]
	if ri >= len(res.RefIdx) || res.RefIdx[ri] < 0 {
		fmt.Fprintf(os.Stderr, "explain: %s [%s]: synthesized outside any artifact (link error)\n", r.Pos, r.SM)
		return
	}
	ref := res.Artifacts[res.RefIdx[ri]]
	line := fmt.Sprintf("explain: %s [%s] task=%s decision=%s artifact=%.12s checker=%s version=%s source=%.12s",
		r.Pos, r.SM, ref.Task, ref.Decision, ref.Key.ID(), ref.Key.Checker, ref.Key.Version, ref.Key.Source)
	if p, ok := store.GetProv(ref.Key); ok {
		line += fmt.Sprintf(" producer=%s wall=%.1fms", p.Producer, float64(p.WallUS)/1000)
		if p.TraceID != "" {
			line += " trace=" + p.TraceID
		}
		if len(p.Deps) > 0 {
			line += fmt.Sprintf(" deps=%d", len(p.Deps))
		}
	} else {
		line += " producer=unknown (no provenance sidecar)"
	}
	fmt.Fprintln(os.Stderr, line)
}
