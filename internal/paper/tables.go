package paper

import (
	"fmt"
	"sort"
	"strings"

	"flashmc/internal/checkers"
	"flashmc/internal/core"
	"flashmc/internal/flash"
	"flashmc/internal/flashgen"
	"flashmc/internal/paths"
)

// Row is one rendered comparison cell set: measured values per
// protocol for one metric.
type Row map[string]int

// CheckerResult captures one checker's per-protocol outcome.
type CheckerResult struct {
	Checker  string
	Errors   Row
	FalsePos Row
	Minor    Row
	Applied  Row
	Scores   map[string]Score
}

// runScored runs a checker across the corpus and scores it.
func (c *Corpus) runScored(chk checkers.Checker) CheckerResult {
	res := CheckerResult{
		Checker:  chk.Name(),
		Errors:   Row{},
		FalsePos: Row{},
		Minor:    Row{},
		Applied:  Row{},
		Scores:   map[string]Score{},
	}
	for _, p := range c.Gen.Protocols {
		prog := c.Programs[p.Name]
		reports, _ := chk.CheckCov(prog, p.Spec)
		sc := ScoreChecker(p, chk.Name(), reports)
		res.Scores[p.Name] = sc
		res.Errors[p.Name] = sc.Errors
		res.FalsePos[p.Name] = sc.FalsePos
		res.Minor[p.Name] = sc.Minor
		res.Applied[p.Name] = chk.Applied(prog)
	}
	return res
}

// Problems returns human-readable reproduction failures (unmatched
// reports or missed sites) across protocols.
func (r CheckerResult) Problems() []string {
	var out []string
	names := make([]string, 0, len(r.Scores))
	for n := range r.Scores {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		sc := r.Scores[n]
		for _, u := range sc.Unmatched {
			out = append(out, fmt.Sprintf("%s: unmatched report %s", n, u))
		}
		for _, m := range sc.Missed {
			out = append(out, fmt.Sprintf("%s: missed site %s %s:%d (%s)", n, m.Checker, m.File, m.Line, m.Note))
		}
	}
	return out
}

// Table1Result holds measured protocol-size statistics.
type Table1Result struct {
	LOC    Row
	Paths  Row
	AvgLen Row
	MaxLen Row
}

// Table1 measures protocol sizes: LOC from the sources, path counts
// and lengths from the CFG dynamic program.
func (c *Corpus) Table1() Table1Result {
	res := Table1Result{LOC: Row{}, Paths: Row{}, AvgLen: Row{}, MaxLen: Row{}}
	for _, p := range c.Gen.Protocols {
		st := ProgramStats(c.Programs[p.Name])
		res.LOC[p.Name] = st.LOC
		res.Paths[p.Name] = st.Paths
		res.AvgLen[p.Name] = st.AvgLen
		res.MaxLen[p.Name] = st.MaxLen
	}
	return res
}

// ProgramStats is one program's Table 1 row: its source LOC, the
// entry-to-exit paths summed over its functions, their count-weighted
// mean length (truncated), and the longest path. Table1 and protostat
// both measure through it.
func ProgramStats(prog *core.Program) flash.Table1Row {
	var total, max int64
	var sumLen float64
	for _, g := range prog.Graphs {
		st := paths.Analyze(g)
		total += st.Count
		sumLen += st.AvgLen * float64(st.Count)
		if st.MaxLen > max {
			max = st.MaxLen
		}
	}
	row := flash.Table1Row{LOC: prog.SourceLOC, Paths: int(total), MaxLen: int(max)}
	if total > 0 {
		row.AvgLen = int(sumLen / float64(total))
	}
	return row
}

// Table2 reproduces the buffer race checker results.
func (c *Corpus) Table2() CheckerResult { return c.runScored(checkers.NewBufferRace()) }

// Table3 reproduces the message length checker results.
func (c *Corpus) Table3() CheckerResult { return c.runScored(checkers.NewMsglen()) }

// Table4Result extends the buffer-management scoring with annotation
// counts.
type Table4Result struct {
	CheckerResult
	Useful  Row
	Useless Row
}

// Table4 reproduces the buffer management checker results.
func (c *Corpus) Table4() Table4Result {
	res := Table4Result{CheckerResult: c.runScored(checkers.NewBufferMgmt()),
		Useful: Row{}, Useless: Row{}}
	for _, p := range c.Gen.Protocols {
		res.Useful[p.Name] = AnnotationCount(p, "buffer_mgmt", flashgen.ClassUseful)
		res.Useless[p.Name] = AnnotationCount(p, "buffer_mgmt", flashgen.ClassUseless)
	}
	return res
}

// Lanes reproduces the §7 deadlock checker results.
func (c *Corpus) Lanes() CheckerResult { return c.runScored(checkers.NewLanes()) }

// Table5Result holds execution-restriction results.
type Table5Result struct {
	CheckerResult
	Handlers Row
	Vars     Row
}

// Table5 reproduces the execution-restriction results. Violations are
// the hook omissions; Handlers/Vars are the examined counts.
func (c *Corpus) Table5() Table5Result {
	res := Table5Result{CheckerResult: c.runScored(checkers.NewExecRestrict()),
		Handlers: Row{}, Vars: Row{}}
	for _, p := range c.Gen.Protocols {
		h, v := checkers.ExecStats(c.Programs[p.Name])
		res.Handlers[p.Name] = h
		res.Vars[p.Name] = v
	}
	return res
}

// Table6Result groups the three §9 checkers.
type Table6Result struct {
	BufferAlloc CheckerResult
	Directory   CheckerResult
	SendWait    CheckerResult
}

// Table6 reproduces the three less-effective checkers.
func (c *Corpus) Table6() Table6Result {
	return Table6Result{
		BufferAlloc: c.runScored(checkers.NewAllocCheck()),
		Directory:   c.runScored(checkers.NewDirectory()),
		SendWait:    c.runScored(checkers.NewSendWait()),
	}
}

// Table7Row is one line of the summary.
type Table7Row struct {
	Checker  string
	LOC      int
	Err      int
	FalsePos int
}

// Table7 reproduces the whole-paper summary by running every checker.
// The Err/FalsePos accounting follows the paper: Table 4's annotation
// counts are the buffer-management false positives, and exec/no-float
// contribute no errors (hook omissions are "violations").
func (c *Corpus) Table7() []Table7Row {
	t2 := c.Table2()
	t3 := c.Table3()
	t4 := c.Table4()
	lanes := c.Lanes()
	t6 := c.Table6()

	sum := func(r Row) int {
		t := 0
		for _, v := range r {
			t += v
		}
		return t
	}
	return []Table7Row{
		{"Buffer management", checkers.NewBufferMgmt().LOC(), sum(t4.Errors), sum(t4.Useless)},
		{"Message length", checkers.NewMsglen().LOC(), sum(t3.Errors), sum(t3.FalsePos)},
		{"Lanes", checkers.NewLanes().LOC(), sum(lanes.Errors), sum(lanes.FalsePos)},
		{"Buffer race", checkers.NewBufferRace().LOC(), sum(t2.Errors), sum(t2.FalsePos)},
		{"Buffer allocation", checkers.NewAllocCheck().LOC(), sum(t6.BufferAlloc.Errors), sum(t6.BufferAlloc.FalsePos)},
		{"Directory management", checkers.NewDirectory().LOC(), sum(t6.Directory.Errors), sum(t6.Directory.FalsePos)},
		{"Send-wait", checkers.NewSendWait().LOC(), sum(t6.SendWait.Errors), sum(t6.SendWait.FalsePos)},
		{"Execution-restriction", checkers.NewExecRestrict().LOC(), 0, 0},
		{"No-float", checkers.NewNoFloat().LOC(), 0, 0},
	}
}

// --- rendering ---

// order is the canonical protocol column order.
var order = flash.ProtocolNames

// RenderCompare renders a two-line paper-vs-measured block for one
// metric.
func RenderCompare(title string, paperRow flash.Counts, measured Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s", title)
	for _, p := range order {
		fmt.Fprintf(&b, " %10s", p[:min(len(p), 10)])
	}
	b.WriteString("      total\n")
	fmt.Fprintf(&b, "%-28s", "  paper")
	tp := 0
	for _, p := range order {
		fmt.Fprintf(&b, " %10d", paperRow[p])
		tp += paperRow[p]
	}
	fmt.Fprintf(&b, " %10d\n", tp)
	fmt.Fprintf(&b, "%-28s", "  measured")
	tm := 0
	for _, p := range order {
		fmt.Fprintf(&b, " %10d", measured[p])
		tm += measured[p]
	}
	fmt.Fprintf(&b, " %10d\n", tm)
	return b.String()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
