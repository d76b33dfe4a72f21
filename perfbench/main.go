// Command perfbench is flashmc's benchmark. One process runs a closed
// loop — a single client with one request in flight — of requests that
// each do what `mcheck -flash -triage sym` does for one protocol of the
// seeded flashgen corpus, checks every result byte for byte against a
// reference, and prints one JSON result as its last line of output.
//
//	perfbench -workload cold_suite|edit_loop -seed N -seconds S -trace 0|1
//
// -trace 0 measures the end-to-end metrics; -trace 1 is a separate run
// that replays each request layer by layer and reports per-layer
// metrics. README.md describes the workloads and every metric.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"flashmc/internal/depot"
	"flashmc/internal/flash"
	"flashmc/internal/flashgen"
	"flashmc/internal/sched"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one run's settings.
type config struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	corpusSeed int64
	workers    int
	out        string
}

// setups is how many times a run sets up; setup_s is their median.
const setups = 3

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	fs.StringVar(&c.workload, "workload", "", "cold_suite or edit_loop")
	fs.Int64Var(&c.seed, "seed", 1, "seed of the request order and the edit schedule")
	fs.Float64Var(&c.seconds, "seconds", 30, "how long the request loop runs")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end loop")
	fs.Int64Var(&c.corpusSeed, "corpus-seed", 1, "flashgen corpus seed")
	fs.StringVar(&c.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for traces and request logs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	c.trace = *trace == 1
	c.workers = runtime.NumCPU()
	if c.workload != "cold_suite" && c.workload != "edit_loop" {
		fmt.Fprintf(stderr, "perfbench: -workload %q: want cold_suite or edit_loop\n", c.workload)
		return 2
	}
	if c.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return 2
	}

	b := &bench{config: c, log: stderr}
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	var res *result
	var err error
	if c.trace {
		res, err = b.traced()
	} else {
		res, err = b.endToEnd()
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// bench is one run.
type bench struct {
	config
	log    io.Writer
	protos []*proto
}

// proto is one corpus protocol with its reference results.
type proto struct {
	gen   *flashgen.Protocol
	ref   []byte // reference ranked stream (render)
	sites []site // edit_loop's candidate edit lines
}

// newDepot opens a fresh, empty depot. Depots live in memory: on disk
// they would time the machine's file system more than flashmc (see
// README.md).
func newDepot() *depot.Depot {
	d, err := depot.Open("")
	if err != nil {
		panic(err) // an in-memory depot has nothing to fail on
	}
	return d
}

// setup generates the corpus and checks every protocol cold against d:
// that computes each reference ranked stream and brings d to the
// edit_loop starting state. The references must reproduce the paper's
// Table 7 totals against the generator's manifest, with no unmatched
// report and no missed site.
func (b *bench) setup(d *depot.Depot) ([]*proto, error) {
	gen := flashgen.Generate(flashgen.Options{Seed: b.corpusSeed})
	var protos []*proto
	errs, fps := 0, 0
	var problems []string
	for _, g := range gen.Protocols {
		out, err := check(&sched.Analyzer{Depot: d, Workers: b.workers}, g, g.Files)
		if err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
		e, f, pr := table7(g, out.res)
		errs += e
		fps += f
		problems = append(problems, pr...)
		protos = append(protos, &proto{gen: g, ref: render(out.ranked), sites: editSites(out.prog, g)})
	}
	if len(problems) > 0 {
		return nil, fmt.Errorf("reference disagrees with the manifest: %s (and %d more)", problems[0], len(problems)-1)
	}
	if errs != flash.Table7Totals.Err || fps != flash.Table7Totals.FalsePos {
		return nil, fmt.Errorf("reference totals %d errors / %d false positives, paper %d / %d",
			errs, fps, flash.Table7Totals.Err, flash.Table7Totals.FalsePos)
	}
	for _, p := range protos {
		if len(p.sites) == 0 {
			return nil, fmt.Errorf("%s: no edit sites", p.gen.Name)
		}
	}
	return protos, nil
}

// request is one scheduled request: a protocol and the files to check.
type request struct {
	p     *proto
	files map[string]string
	edit  *edit
}

// scheduler returns the workload's request generator for the run's seed.
func (b *bench) scheduler() func() request {
	s := newSchedule(b.seed, len(b.protos))
	if b.workload == "cold_suite" {
		return func() request {
			p := b.protos[s.next()]
			return request{p: p, files: p.gen.Files}
		}
	}
	sites := make([][]site, len(b.protos))
	for i, p := range b.protos {
		sites[i] = p.sites
	}
	return func() request {
		e := s.nextEdit(sites)
		p := b.protos[e.proto]
		return request{p: p, files: e.apply(p.gen.Files), edit: &e}
	}
}

// countKey is what must repeat exactly each time cold_suite checks the
// same protocol from an empty depot.
type countKey struct {
	tasks, puts int
}

// endToEnd is the untraced run: set up, then the closed loop.
func (b *bench) endToEnd() (*result, error) {
	// Set-up leaves edit_loop's depot populated; cold_suite's requests
	// each start from an empty one instead.
	var setupS []float64
	var store *depot.Depot
	for k := 0; k < setups; k++ {
		t0 := time.Now()
		d := newDepot()
		protos, err := b.setup(d)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		b.protos, store = protos, d
	}

	cold := b.workload == "cold_suite"
	next := b.scheduler()
	var (
		lat       []float64 // ms
		busy      time.Duration
		lines     int
		allocated uint64
		failed    int
		seen      = map[string]countKey{}
		log       []requestLog
	)
	deadline := time.Now().Add(time.Duration(b.seconds * float64(time.Second)))
	// Stop at the end of a rotation, so every protocol weighs the same.
	for i := 0; time.Now().Before(deadline) || i%len(b.protos) != 0; i++ {
		rq := next()
		runtime.GC() // each request starts from a collected heap, like a fresh mcheck process
		puts0 := cPuts.Value()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		d := store
		if cold {
			d = newDepot() // the first `mcheck -cache` run
		}
		out, err := check(&sched.Analyzer{Depot: d, Workers: b.workers}, rq.p.gen, rq.files)
		elapsed := time.Since(t0)
		runtime.ReadMemStats(&m1)
		puts := int(cPuts.Value() - puts0)

		lat = append(lat, ms(elapsed))
		busy += elapsed
		allocated += m1.TotalAlloc - m0.TotalAlloc
		entry := requestLog{Protocol: rq.p.gen.Name, LatencyMS: lat[len(lat)-1],
			AllocBytes: m1.TotalAlloc - m0.TotalAlloc, DepotPuts: puts}
		if rq.edit != nil {
			entry.Edit = rq.edit.String()
		}
		if err == nil {
			lines += out.prog.SourceLOC
			entry.Tasks = out.res.Stats.Tasks
			entry.Reanalyzed = len(out.res.Stats.Reanalyzed)
			entry.TriageMisses = out.triage.CacheMisses
			if !bytes.Equal(render(out.ranked), rq.p.ref) {
				err = errors.New("ranked stream differs from the reference")
			} else if cold {
				// A cold check of one protocol must do the same work every time.
				k := countKey{tasks: out.res.Stats.Tasks, puts: puts}
				if first, ok := seen[rq.p.gen.Name]; ok && first != k {
					err = fmt.Errorf("counts drifted: %+v, first %+v", k, first)
				}
				seen[rq.p.gen.Name] = k
			}
		}
		if err != nil {
			failed++
			entry.Error = err.Error()
			fmt.Fprintf(b.log, "perfbench: request %d (%s): %v\n", len(lat), rq.p.gen.Name, err)
		}
		log = append(log, entry)
	}
	if err := b.writeJSON(fmt.Sprintf("requests-%s-seed%d.json", b.workload, b.seed), log); err != nil {
		return nil, err
	}

	n := len(lat)
	if n == 0 {
		return nil, errors.New("no request completed")
	}
	sorted := sortedCopy(lat)
	fmt.Fprintf(b.log, "perfbench: %s: %d requests, %d failed, %d beyond p90\n",
		b.workload, n, failed, n-rank(n, 0.90)-1)
	return &result{
		Correct:   failed == 0,
		Attempted: n,
		Failed:    failed,
		Metrics: map[string]metric{
			"latency_p50_ms":         {median(sorted), "ms"},
			"latency_p90_ms":         {sorted[rank(n, 0.90)], "ms"},
			"throughput_lines_per_s": {float64(lines) / busy.Seconds(), "lines/s"},
			"alloc_mb_per_req":       {float64(allocated) / float64(n) / 1e6, "MB"},
			"peak_rss_mb":            {peakRSSMB(), "MB"},
			"success_rate":           {float64(n-failed) / float64(n), "ratio"},
			"setup_s":                {median(sortedCopy(setupS)), "s"},
		},
	}, nil
}

// requestLog is one end-to-end request as written to the run's log,
// including edit_loop's per-edit invalidation counts.
type requestLog struct {
	Protocol     string  `json:"protocol"`
	Edit         string  `json:"edit,omitempty"`
	LatencyMS    float64 `json:"latency_ms"`
	AllocBytes   uint64  `json:"alloc_bytes"`
	Tasks        int     `json:"tasks"`
	Reanalyzed   int     `json:"reanalyzed"`
	DepotPuts    int     `json:"depot_puts"`
	TriageMisses int     `json:"triage_misses"`
	Error        string  `json:"error,omitempty"`
}

// writeJSON writes v to name in the output directory.
func (b *bench) writeJSON(name string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(b.out, name), append(data, '\n'), 0o644)
}
