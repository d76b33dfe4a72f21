package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"flashmc/internal/depot"
	"flashmc/internal/sched"
)

// perLayer lists the traced run's metrics with their units.
var perLayer = []struct{ name, unit string }{
	{"cpp.ms", "ms"}, {"cpp.allocs", "count"},
	{"lexer.ms", "ms"}, {"lexer.allocs", "count"}, {"lexer.tokens", "count"},
	{"parser.ms", "ms"}, {"parser.allocs", "count"},
	{"sem.ms", "ms"},
	{"cfg.ms", "ms"}, {"cfg.allocs", "count"}, {"cfg.nodes", "count"},
	{"sched.fingerprint_ms", "ms"}, {"sched.fingerprint_allocs", "count"},
	{"sched.tasks", "count"}, {"sched.task_ms", "ms"}, {"sched.queue_wait_ms", "ms"},
	{"sched.hit_ratio", "ratio"}, {"sched.reanalyzed", "count"}, {"sched.global_reruns", "count"},
	{"engine.ms", "ms"}, {"engine.allocs", "count"}, {"engine.configs", "count"},
	{"engine.node_visits", "count"}, {"engine.pattern_evals", "count"}, {"engine.rules_fired", "count"},
	{"engine.fused_ms", "ms"}, {"engine.fused_allocs", "count"},
	{"checkers.global_ms", "ms"},
	{"lanes.summary_ms", "ms"}, {"lanes.link_ms", "ms"}, {"lanes.check_ms", "ms"},
	{"depot.gets", "count"}, {"depot.hits", "count"}, {"depot.get_ms", "ms"},
	{"depot.puts", "count"}, {"depot.put_bytes", "bytes"}, {"depot.put_ms", "ms"},
	{"triage.ms", "ms"}, {"triage.allocs", "count"}, {"triage.cache_misses", "count"},
	{"sym.paths", "count"},
	{"residual_ms", "ms"}, {"trace.overhead_pct", "%"},
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// traced is the per-layer run. Each request is checked three times
// from the same depot state: by the pipeline at the benchmark's worker
// count (scheduler stats), by the pipeline at one worker (the baseline
// the traced wall time is compared with), and by the traced replay.
// All three must reproduce the reference; the replay must also make
// the same cache decisions and name the same artifacts as the
// one-worker pipeline, and the fused engine must reproduce the
// sequential engine's output on every function the replay walked.
func (b *bench) traced() (*result, error) {
	// Three depots in the same starting state: empty for cold_suite,
	// populated by a cold check of every protocol for edit_loop.
	var stores [3]*depot.Depot
	stores[0] = newDepot()
	var err error
	if b.protos, err = b.setup(stores[0]); err != nil {
		return nil, err
	}
	if b.workload == "edit_loop" {
		for i := 1; i < 3; i++ {
			stores[i] = newDepot()
			for _, p := range b.protos {
				if _, err := check(&sched.Analyzer{Depot: stores[i], Workers: b.workers}, p.gen, p.gen.Files); err != nil {
					return nil, err
				}
			}
		}
	}

	tr := newTracer()
	next := b.scheduler()
	var (
		rows   []*traceRow
		failed int
		seen   = map[string]*traceRow{}
	)
	deadline := time.Now().Add(time.Duration(b.seconds * float64(time.Second)))
	// Stop at the end of a rotation, so every protocol weighs the same.
	for i := 0; time.Now().Before(deadline) || i%len(b.protos) != 0; i++ {
		rq := next()
		if b.workload == "cold_suite" {
			stores = [3]*depot.Depot{newDepot(), newDepot(), newDepot()}
		}
		row, err := b.traceRequest(tr, int32(len(rows)), rq, stores)
		if err == nil && b.workload == "cold_suite" {
			// The same protocol checked from an empty depot must count
			// the same work every time it comes round.
			if first, ok := seen[rq.p.gen.Name]; ok {
				err = countDrift(first.Metrics, row.Metrics)
			} else {
				seen[rq.p.gen.Name] = row
			}
		}
		if err != nil {
			failed++
			fmt.Fprintf(b.log, "perfbench: traced request %d (%s): %v\n", len(rows), rq.p.gen.Name, err)
		}
		if row != nil {
			rows = append(rows, row)
		}
	}
	if len(rows) == 0 {
		return nil, errors.New("no traced request completed")
	}
	if err := b.writeTrace(tr, rows); err != nil {
		return nil, err
	}
	metrics := map[string]metric{}
	for _, m := range perLayer {
		vals := make([]float64, len(rows))
		for i, row := range rows {
			vals[i] = row.Metrics[m.name]
		}
		metrics[m.name] = metric{median(sortedCopy(vals)), m.unit}
	}
	return &result{Correct: failed == 0, Attempted: len(rows), Failed: failed, Metrics: metrics}, nil
}

// exactCounts must repeat exactly for one protocol checked cold.
var exactCounts = []string{"engine.configs", "engine.node_visits", "engine.pattern_evals",
	"engine.rules_fired", "depot.puts", "depot.put_bytes", "sched.tasks", "lexer.tokens", "cfg.nodes"}

func countDrift(first, row map[string]float64) error {
	for _, k := range exactCounts {
		if first[k] != row[k] {
			return fmt.Errorf("%s drifted: %g, first %g", k, row[k], first[k])
		}
	}
	return nil
}

// traceRow is one traced request in the trace file.
type traceRow struct {
	Protocol string             `json:"protocol"`
	Edit     string             `json:"edit,omitempty"`
	WallMS   float64            `json:"wall_ms"`
	PipeMS   float64            `json:"pipeline_one_worker_ms"`
	Metrics  map[string]float64 `json:"metrics"`
}

// traceRequest runs one request three ways (see traced) and returns
// its row. A row comes back with an error when the request ran but
// one of its checks failed.
func (b *bench) traceRequest(tr *tracer, id int32, rq request, stores [3]*depot.Depot) (*traceRow, error) {
	runtime.GC()
	full, err := check(&sched.Analyzer{Depot: stores[0], Workers: b.workers}, rq.p.gen, rq.files)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	t0 := time.Now()
	one, err := check(&sched.Analyzer{Depot: stores[1], Workers: 1}, rq.p.gen, rq.files)
	pipeWall := time.Since(t0)
	if err != nil {
		return nil, err
	}

	runtime.GC()
	r := &replayer{tr: tr, req: id, d: stores[2], seq: map[int]map[int]artifact{}}
	hits0, gets0, puts0, sym0 := cHits.Value(), cHits.Value()+cMisses.Value(), cPuts.Value(), symPaths()
	t1 := time.Now()
	ranked, prog, err := r.request(rq.p.gen, rq.files)
	wall := time.Since(t1)
	if err != nil {
		return nil, err
	}
	hits, gets, puts, sym := cHits.Value()-hits0, cHits.Value()+cMisses.Value()-gets0, cPuts.Value()-puts0, symPaths()-sym0
	fusedTime, fusedAllocs, problems := r.fusedCheck(prog)

	st := full.res.Stats
	m := map[string]float64{
		"cpp.allocs":               float64(r.tot.allocs[lCpp]),
		"lexer.allocs":             float64(r.tot.allocs[lLexer]),
		"lexer.tokens":             float64(r.tokens),
		"parser.allocs":            float64(r.tot.allocs[lParser]),
		"cfg.allocs":               float64(r.tot.allocs[lCfg]),
		"cfg.nodes":                float64(r.nodes),
		"sched.fingerprint_allocs": float64(r.tot.allocs[lFingerprint]),
		"sched.tasks":              float64(st.Tasks),
		"sched.task_ms":            ms(st.TaskTime),
		"sched.queue_wait_ms":      ms(st.QueueWait),
		"sched.hit_ratio":          float64(st.CacheHits) / float64(max(1, st.CacheHits+st.CacheMisses)),
		"sched.reanalyzed":         float64(len(st.Reanalyzed)),
		"sched.global_reruns":      float64(st.GlobalReruns),
		"engine.allocs":            float64(r.tot.allocs[lEngine]),
		"engine.configs":           r.engine[0],
		"engine.node_visits":       r.engine[1],
		"engine.pattern_evals":     r.engine[2],
		"engine.rules_fired":       r.engine[3],
		"engine.fused_ms":          ms(fusedTime),
		"engine.fused_allocs":      float64(fusedAllocs),
		"depot.gets":               gets,
		"depot.hits":               hits,
		"depot.puts":               puts,
		"depot.put_bytes":          float64(r.putBytes),
		"triage.allocs":            float64(r.tot.allocs[lTriage]),
		"triage.cache_misses":      float64(r.triageMisses),
		"sym.paths":                sym,
		"trace.overhead_pct":       100 * (wall.Seconds() - pipeWall.Seconds()) / pipeWall.Seconds(),
	}
	var self time.Duration
	for l, d := range r.tot.self {
		m[layers[l].metric] = ms(d)
		self += d
	}
	m["residual_ms"] = ms(wall - self)
	row := &traceRow{Protocol: rq.p.gen.Name, WallMS: ms(wall), PipeMS: ms(pipeWall), Metrics: m}
	if rq.edit != nil {
		row.Edit = rq.edit.String()
	}

	// Reconciliation: the layers' self times plus the residual are the
	// traced wall time, and no layer time is unaccounted for.
	sum := m["residual_ms"]
	for _, l := range layers {
		sum += m[l.metric]
	}
	if math.Abs(sum-row.WallMS) > 1e-6 || m["residual_ms"] < 0 {
		problems = append(problems, fmt.Sprintf("layers + residual = %.6f ms, traced wall %.6f ms", sum, row.WallMS))
	}
	for _, o := range []struct {
		what   string
		ranked []byte
	}{{"pipeline", render(full.ranked)}, {"one-worker pipeline", render(one.ranked)}, {"replay", render(ranked)}} {
		if !bytes.Equal(o.ranked, rq.p.ref) {
			problems = append(problems, o.what+": ranked stream differs from the reference")
		}
	}
	ps := one.res.Stats
	if r.lookups != ps.CacheHits+ps.CacheMisses || r.lookupHits != ps.CacheHits ||
		r.triageHits != one.triage.CacheHits || r.triageMisses != one.triage.CacheMisses {
		problems = append(problems, fmt.Sprintf("replay cache decisions %d/%d hits, triage %d/%d; pipeline %d/%d, triage %d/%d",
			r.lookupHits, r.lookups, r.triageHits, r.triageHits+r.triageMisses,
			ps.CacheHits, ps.CacheHits+ps.CacheMisses, one.triage.CacheHits, one.triage.CacheHits+one.triage.CacheMisses))
	}
	if len(r.keys) != len(one.res.Artifacts) {
		problems = append(problems, fmt.Sprintf("replay names %d artifacts, pipeline %d", len(r.keys), len(one.res.Artifacts)))
	} else {
		for i, a := range one.res.Artifacts {
			if a.Key != r.keys[i] {
				problems = append(problems, fmt.Sprintf("artifact %d: replay key %s, pipeline %s", i, r.keys[i].ID(), a.Key.ID()))
				break
			}
		}
	}
	if len(problems) > 0 {
		return row, errors.New(strings.Join(problems, "; "))
	}
	return row, nil
}

// traceEvent is one Chrome trace-event-format complete event.
type traceEvent struct {
	Name string    `json:"name"`
	Cat  string    `json:"cat"`
	Ph   string    `json:"ph"`
	TS   float64   `json:"ts"`
	Dur  float64   `json:"dur"`
	PID  int       `json:"pid"`
	TID  int       `json:"tid"`
	Args eventArgs `json:"args"`
}

type eventArgs struct {
	Req    int32  `json:"req"`
	Allocs uint64 `json:"allocs"`
}

// writeTrace writes the traced run's spans (one complete event per
// span, microseconds since the run's start) and its per-request rows
// to trace-<workload>-seed<seed>.json in the output directory; any
// Chrome-trace viewer opens it.
func (b *bench) writeTrace(tr *tracer, rows []*traceRow) error {
	events := make([]traceEvent, len(tr.spans))
	for i, s := range tr.spans {
		events[i] = traceEvent{Name: layers[s.layer].span, Cat: "layer", Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.dur) / 1e3, PID: 1, TID: 1,
			Args: eventArgs{Req: s.req, Allocs: s.allocs}}
	}
	f, err := os.Create(filepath.Join(b.out, fmt.Sprintf("trace-%s-seed%d.json", b.workload, b.seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(struct {
		TraceEvents []traceEvent `json:"traceEvents"`
		Requests    []*traceRow  `json:"requests"`
	}{events, rows})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
