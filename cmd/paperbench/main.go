// paperbench regenerates every table of the paper's evaluation and
// prints paper-vs-measured rows, plus the static-vs-dynamic experiment
// motivating the work.
//
// Usage:
//
//	paperbench [-seed N] [-trials N] [-json]
//	paperbench -bench out.json [-gate BENCH_PR4.json] [-coverage-out cov.json]
//	paperbench -append BENCH_PR9.json
//
// -json replaces the rendered tables with one machine-readable JSON
// object (for dashboards and CI trend tracking). The payload carries a
// "bench_schema" version and contains only deterministic quantities —
// two runs with the same seed are byte-identical, which CI asserts.
//
// The bench flags measure instead of reproduce: -bench times a full
// corpus coverage run (every checker over every protocol) and writes a
// versioned bench JSON with wall time, configs explored and rules
// fired; -gate compares that measurement against a committed baseline
// and fails if wall time or configs explored regressed more than 25%;
// -coverage-out writes the corpus coverage/v1 artifact (validated by
// obscheck -coverage); -coverage prints the checker × protocol matrix
// and any coverage-dead findings with the rendered tables; -append
// grows a committed trajectory file — a JSON array of timestamped
// bench measurements — so performance history accumulates across PRs
// instead of each baseline overwriting the last.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"flashmc/internal/flash"
	"flashmc/internal/flashgen"
	"flashmc/internal/obs"
	"flashmc/internal/paper"
)

// benchSchema versions every JSON payload paperbench writes.
const benchSchema = 1

// benchResult is the measured (non-deterministic) half: what the gate
// compares. Field names are the schema; changing them bumps benchSchema.
type benchResult struct {
	BenchSchema     int     `json:"bench_schema"`
	Seed            int64   `json:"seed"`
	Protocols       int     `json:"protocols"`
	Checkers        int     `json:"checkers"`
	WallSeconds     float64 `json:"wall_seconds"`
	ConfigsExplored float64 `json:"configs_explored"`
	RulesFired      float64 `json:"rules_fired"`
}

// trajectoryEntry is one row of a -append trajectory file: a bench
// measurement plus when it was taken.
type trajectoryEntry struct {
	benchResult
	Unix int64 `json:"unix"`
}

// appendTrajectory appends entry to the trajectory JSON array at path
// (created if missing) and returns the new entry count. Earlier entries
// are kept as raw JSON and written back byte-for-byte, so fields that
// older paperbench versions recorded survive the rewrite.
func appendTrajectory(path string, entry trajectoryEntry) (int, error) {
	var entries []json.RawMessage
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &entries); err != nil {
			return 0, fmt.Errorf("%s: %v", path, err)
		}
	} else if !os.IsNotExist(err) {
		return 0, err
	}
	last, err := json.MarshalIndent(entry, "  ", "  ")
	if err != nil {
		return 0, err
	}
	entries = append(entries, last)
	var b bytes.Buffer
	b.WriteString("[\n")
	for i, raw := range entries {
		if i > 0 {
			b.WriteString(",\n")
		}
		b.WriteString("  ")
		b.Write(raw)
	}
	b.WriteString("\n]\n")
	return len(entries), os.WriteFile(path, b.Bytes(), 0o644)
}

// renderJSON builds the deterministic -json payload: bench schema,
// every table, the coverage matrix and the coverage-dead cross-check.
// No timestamps and no wall times — byte-identical across runs for a
// given seed.
func renderJSON(c *paper.Corpus, m *paper.CoverageMatrix, seed int64, trials int) ([]byte, error) {
	var dead []string
	for _, d := range c.CoverageDead(m) {
		dead = append(dead, d.String())
	}
	out := map[string]any{
		"bench_schema":      benchSchema,
		"seed":              seed,
		"table1":            c.Table1(),
		"table2":            c.Table2(),
		"table3":            c.Table3(),
		"table4":            c.Table4(),
		"lanes":             c.Lanes(),
		"table5":            c.Table5(),
		"table6":            c.Table6(),
		"table7":            c.Table7(),
		"static_vs_dynamic": c.StaticVsDynamic(trials, seed),
		"coverage":          m.Merged,
		"coverage_dead":     dead,
	}
	return json.MarshalIndent(out, "", "  ")
}

// measure times one full corpus coverage run and attributes the engine
// work counters to it.
func measure(c *paper.Corpus, seed int64) (*paper.CoverageMatrix, benchResult) {
	before := obs.Default.Snapshot()
	t0 := time.Now()
	m := c.Coverage()
	wall := time.Since(t0).Seconds()
	after := obs.Default.Snapshot()
	return m, benchResult{
		BenchSchema:     benchSchema,
		Seed:            seed,
		Protocols:       len(m.Protocols),
		Checkers:        len(m.Checkers),
		WallSeconds:     wall,
		ConfigsExplored: after["engine_configs_explored_total"] - before["engine_configs_explored_total"],
		RulesFired:      after["engine_rules_fired_total"] - before["engine_rules_fired_total"],
	}
}

// gate compares a measurement against a committed baseline: wall time
// and configs explored may regress at most 25%. Returns the violations.
func gate(baseline, current benchResult) []string {
	var bad []string
	check := func(what string, base, cur float64) {
		if base > 0 && cur > base*1.25 {
			bad = append(bad, fmt.Sprintf("%s regressed: %.3f -> %.3f (+%.0f%%, limit 25%%)",
				what, base, cur, 100*(cur-base)/base))
		}
	}
	check("wall_seconds", baseline.WallSeconds, current.WallSeconds)
	check("configs_explored", baseline.ConfigsExplored, current.ConfigsExplored)
	if baseline.BenchSchema != current.BenchSchema {
		bad = append(bad, fmt.Sprintf("bench_schema changed: %d -> %d (regenerate the baseline)",
			baseline.BenchSchema, current.BenchSchema))
	}
	return bad
}

func main() {
	seed := flag.Int64("seed", 1, "corpus seed")
	trials := flag.Int("trials", 120, "dynamic-testing trials per handler")
	jsonOut := flag.Bool("json", false, "emit results as one deterministic JSON object instead of rendered tables")
	benchOut := flag.String("bench", "", "time a corpus coverage run and write the bench JSON to this path")
	gateFile := flag.String("gate", "", "compare the bench measurement against this committed baseline; exit nonzero on >25% regression")
	coverageOut := flag.String("coverage-out", "", "write the corpus coverage/v1 artifact to this path")
	showCoverage := flag.Bool("coverage", false, "print the checker x protocol coverage matrix and coverage-dead findings")
	appendFile := flag.String("append", "", "append this run's bench measurement to the trajectory JSON array at this path (created if missing)")
	flag.Parse()

	c, err := paper.LoadCorpus(flashgen.Options{Seed: *seed})
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
		os.Exit(1)
	}

	// One coverage run feeds every consumer that needs it.
	var matrix *paper.CoverageMatrix
	var bench benchResult
	if *jsonOut || *benchOut != "" || *gateFile != "" || *coverageOut != "" || *showCoverage || *appendFile != "" {
		matrix, bench = measure(c, *seed)
	}

	if *appendFile != "" {
		n, err := appendTrajectory(*appendFile, trajectoryEntry{benchResult: bench, Unix: time.Now().Unix()})
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: append: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("paperbench: trajectory %s now has %d entries\n", *appendFile, n)
	}

	if *coverageOut != "" {
		out, err := os.Create(*coverageOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			os.Exit(1)
		}
		if err := matrix.Merged.WriteJSON(out); err != nil {
			out.Close()
			fmt.Fprintf(os.Stderr, "paperbench: coverage: %v\n", err)
			os.Exit(1)
		}
		if err := out.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: coverage: %v\n", err)
			os.Exit(1)
		}
	}
	if *benchOut != "" {
		data, err := json.MarshalIndent(bench, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*benchOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			os.Exit(1)
		}
	}
	if *gateFile != "" {
		data, err := os.ReadFile(*gateFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: gate: %v\n", err)
			os.Exit(1)
		}
		var baseline benchResult
		if err := json.Unmarshal(data, &baseline); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: gate: %s: %v\n", *gateFile, err)
			os.Exit(1)
		}
		if bad := gate(baseline, bench); len(bad) > 0 {
			for _, b := range bad {
				fmt.Fprintf(os.Stderr, "paperbench: gate: %s\n", b)
			}
			os.Exit(1)
		}
		fmt.Printf("paperbench: gate ok: wall %.3fs (baseline %.3fs), %g configs (baseline %g)\n",
			bench.WallSeconds, baseline.WallSeconds, bench.ConfigsExplored, baseline.ConfigsExplored)
	}
	if *benchOut != "" || *gateFile != "" || *coverageOut != "" || *appendFile != "" {
		if !*jsonOut && !*showCoverage {
			return
		}
	}

	if *jsonOut {
		data, err := renderJSON(c, matrix, *seed, *trials)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			os.Exit(1)
		}
		os.Stdout.Write(append(data, '\n'))
		return
	}

	fmt.Println("=== Table 1: protocol size (paper vs measured) ===")
	t1 := c.Table1()
	paperLOC, paperPaths, paperAvg, paperMax := flash.Counts{}, flash.Counts{}, flash.Counts{}, flash.Counts{}
	for p, row := range flash.Table1 {
		paperLOC[p], paperPaths[p], paperAvg[p], paperMax[p] = row.LOC, row.Paths, row.AvgLen, row.MaxLen
	}
	fmt.Print(paper.RenderCompare("LOC", paperLOC, paper.Row(t1.LOC)))
	fmt.Print(paper.RenderCompare("# of paths", paperPaths, paper.Row(t1.Paths)))
	fmt.Print(paper.RenderCompare("avg path length", paperAvg, paper.Row(t1.AvgLen)))
	fmt.Print(paper.RenderCompare("max path length", paperMax, paper.Row(t1.MaxLen)))

	fmt.Println("\n=== Table 2: buffer race checker ===")
	t2 := c.Table2()
	fmt.Print(paper.RenderCompare("errors", flash.Table2.Errors, t2.Errors))
	fmt.Print(paper.RenderCompare("false positives", flash.Table2.FalsePos, t2.FalsePos))
	fmt.Print(paper.RenderCompare("applied", flash.Table2.Applied, t2.Applied))

	fmt.Println("\n=== Table 3: message length checker ===")
	t3 := c.Table3()
	fmt.Print(paper.RenderCompare("errors", flash.Table3.Errors, t3.Errors))
	fmt.Print(paper.RenderCompare("false positives", flash.Table3.FalsePos, t3.FalsePos))
	fmt.Print(paper.RenderCompare("applied", flash.Table3.Applied, t3.Applied))

	fmt.Println("\n=== Table 4: buffer management checker ===")
	t4 := c.Table4()
	fmt.Print(paper.RenderCompare("errors", flash.Table4.Errors, t4.Errors))
	fmt.Print(paper.RenderCompare("minor", flash.Table4.Minor, t4.Minor))
	fmt.Print(paper.RenderCompare("useful annotations", flash.Table4.Useful, t4.Useful))
	fmt.Print(paper.RenderCompare("useless annotations", flash.Table4.Useless, t4.Useless))

	fmt.Println("\n=== §7: lane deadlock checker ===")
	lanes := c.Lanes()
	fmt.Print(paper.RenderCompare("errors", flash.LanesResults.Errors, lanes.Errors))
	fmt.Print(paper.RenderCompare("false positives", flash.LanesResults.FalsePos, lanes.FalsePos))

	fmt.Println("\n=== Table 5: execution restrictions ===")
	t5 := c.Table5()
	viol := paper.Row{}
	for p, sc := range t5.Scores {
		viol[p] = sc.Violations
	}
	fmt.Print(paper.RenderCompare("violations", flash.Table5.Violations, viol))
	fmt.Print(paper.RenderCompare("handlers", flash.Table5.Handlers, t5.Handlers))
	fmt.Print(paper.RenderCompare("vars", flash.Table5.Vars, t5.Vars))

	fmt.Println("\n=== Table 6: three less effective checks ===")
	t6 := c.Table6()
	fmt.Print(paper.RenderCompare("alloc false positives", flash.Table6.BufferAlloc.FalsePos, t6.BufferAlloc.FalsePos))
	fmt.Print(paper.RenderCompare("alloc applied", flash.Table6.BufferAlloc.Applied, t6.BufferAlloc.Applied))
	fmt.Print(paper.RenderCompare("directory errors", flash.Table6.Directory.Errors, t6.Directory.Errors))
	fmt.Print(paper.RenderCompare("directory false pos", flash.Table6.Directory.FalsePos, t6.Directory.FalsePos))
	fmt.Print(paper.RenderCompare("directory applied", flash.Table6.Directory.Applied, t6.Directory.Applied))
	fmt.Print(paper.RenderCompare("send-wait false pos", flash.Table6.SendWait.FalsePos, t6.SendWait.FalsePos))
	fmt.Print(paper.RenderCompare("send-wait applied", flash.Table6.SendWait.Applied, t6.SendWait.Applied))

	fmt.Println("\n=== Table 7: summary ===")
	fmt.Printf("%-24s %12s %12s %12s %12s %8s %10s\n",
		"checker", "LOC(paper)", "LOC(ours)", "err(paper)", "err(ours)", "fp(paper)", "fp(ours)")
	errT, fpT := 0, 0
	for i, row := range c.Table7() {
		want := flash.Table7[i]
		fmt.Printf("%-24s %12d %12d %12d %12d %8d %10d\n",
			row.Checker, want.LOC, row.LOC, want.Err, row.Err, want.FalsePos, row.FalsePos)
		errT += row.Err
		fpT += row.FalsePos
	}
	fmt.Printf("%-24s %12d %12s %12d %12d %8d %10d\n", "Total",
		flash.Table7Totals.LOC, "-", flash.Table7Totals.Err, errT, flash.Table7Totals.FalsePos, fpT)

	fmt.Println("\n=== §2/§11: static vs dynamic detection ===")
	fmt.Print(paper.RenderStaticVsDynamic(c.StaticVsDynamic(*trials, *seed)))

	if *showCoverage {
		fmt.Println("\n=== Checker coverage (rule firings per protocol) ===")
		matrix.WriteTable(os.Stdout)
		dead := c.CoverageDead(matrix)
		if len(dead) == 0 {
			fmt.Println("coverage-dead: none; every lint-clean rule fired on at least one protocol")
		} else {
			for _, d := range dead {
				fmt.Printf("coverage-dead: %s\n", d)
			}
		}
	}
}
