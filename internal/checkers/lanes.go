package checkers

import (
	_ "embed"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"flashmc/internal/cc/ast"
	"flashmc/internal/cc/token"
	"flashmc/internal/cfg"
	"flashmc/internal/core"
	"flashmc/internal/engine"
	"flashmc/internal/flash"
	"flashmc/internal/global"
)

//go:embed lanes.go
var lanesSource string

// lanes is the §7 deadlock-avoidance checker. FLASH divides the
// network into four virtual lanes; the hardware only dispatches a
// handler once that handler's declared lane allowance is free, so a
// handler whose worst-case path sends more than its allowance on any
// lane can deadlock the machine. The check is inter-procedural: a
// local pass annotates every send with its lane and emits per-function
// flow-graph summaries (package global); the global pass links them
// and walks the call graph computing the maximum sends per lane on any
// path. The paper's fixed-point rule handles loops and recursion:
// re-entering a function (or revisiting a node) with an unchanged lane
// vector is a fixed point and that path stops; with sends inside the
// cycle the count grows until it exceeds the allowance and is
// reported.
type lanes struct{}

// NewLanes returns the lane-allowance checker.
func NewLanes() Checker { return &lanes{} }

func (*lanes) Name() string { return "lanes" }

func (*lanes) Version() string { return "1.1.0" }

func (*lanes) LOC() int { return coreLOC(lanesSource) }

func (*lanes) Applied(p *core.Program) int {
	total := 0
	for _, pat := range sendPatterns() {
		total += p.Count(pat)
	}
	return total
}

// LaneAnnotator is the local pass: it labels each CFG node with the
// sends ("send:<lane>") and space checks ("space:<lane>") it contains.
func LaneAnnotator(n *cfg.Node) []string {
	var root ast.Node
	switch n.Kind {
	case cfg.KindStmt:
		root = n.Stmt
	case cfg.KindBranch:
		root = n.Cond
	default:
		return nil
	}
	var anns []string
	ast.Inspect(root, func(x ast.Node) bool {
		call, ok := x.(*ast.Call)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok {
			return true
		}
		if lane := flash.LaneOfSend(id.Name); lane >= 0 {
			anns = append(anns, "send:"+strconv.Itoa(lane))
		}
		if id.Name == flash.MacroWaitForSpace && len(call.Args) == 1 {
			if lit, ok := call.Args[0].(*ast.IntLit); ok {
				anns = append(anns, "space:"+strconv.Itoa(int(lit.Value)))
			}
		}
		return true
	})
	return anns
}

// Summarize runs the local pass over a program.
func Summarize(p *core.Program) []*global.Summary {
	out := make([]*global.Summary, 0, len(p.Graphs))
	for _, g := range p.Graphs {
		out = append(out, global.FromCFG(g, LaneAnnotator))
	}
	return out
}

// CheckCov links the program's summaries, walks each handler of spec
// with CheckHandler and ends with LinkReports: the assembly the
// scheduler runs as one task per handler plus the live link.
func (*lanes) CheckCov(p *core.Program, spec *flash.Spec) ([]engine.Report, []*engine.Coverage) {
	prog, linkErrs := global.Link(Summarize(p))
	var reports []engine.Report
	var covs []*engine.Coverage
	keep := func(got []engine.Report, cov *engine.Coverage) {
		reports = append(reports, got...)
		if !cov.Empty() {
			covs = append(covs, cov)
		}
	}
	for _, h := range append(append([]string{}, spec.Hardware...), spec.Software...) {
		keep(CheckHandler(prog, spec, h))
	}
	keep(LinkReports(linkErrs))
	return reports, covs
}

// CheckHandler runs the global pass for one handler h of spec: a
// one-handler spec that keeps the protocol's allowance table. It is the
// unit the scheduler caches by h's call-graph cone, so the lane
// coverage is one entry per walked handler on every path.
func CheckHandler(prog *global.Program, spec *flash.Spec, h string) ([]engine.Report, *engine.Coverage) {
	return CheckLanesCov(prog, &flash.Spec{Hardware: []string{h}, Allowance: spec.Allowance})
}

// LinkReports turns link errors into the lane checker's "link" reports
// and their coverage, one "link" firing per error (empty when there
// are none).
func LinkReports(errs []error) ([]engine.Report, *engine.Coverage) {
	var reports []engine.Report
	for _, e := range errs {
		reports = append(reports, engine.Report{SM: "lanes", Rule: "link", Msg: e.Error(),
			Trace: engine.Witness(token.Pos{}, "link", e.Error())})
	}
	return reports, engine.ReportCoverage("lanes", reports)
}

// checker-core: begin

// defaultAllowance is used for handlers the spec does not list.
var defaultAllowance = flash.LaneVector{1, 1, 1, 1}

// laneWalker carries the global traversal state for one handler.
type laneWalker struct {
	prog    *global.Program
	allow   flash.LaneVector
	handler string
	reports *[]engine.Report
	visits  map[walkKey]visit
	trace   []string
	warned  map[string]bool
}

// checkLanes is CheckLanesCov walking every handler with st's maps,
// emptied before each walk.
func checkLanes(prog *global.Program, spec *flash.Spec, st *walkState) ([]engine.Report, *engine.Coverage) {
	var reports []engine.Report
	cov := &engine.Coverage{SM: "lanes"}
	for _, h := range append(append([]string{}, spec.Hardware...), spec.Software...) {
		s := prog.Funcs[h]
		if s == nil {
			continue
		}
		if cov.Rules == nil {
			cov.Rules = map[string]uint64{}
		}
		cov.Rules["walk"]++
		allow, ok := spec.Allowance[h]
		if !ok {
			allow = defaultAllowance
		}
		st.reset()
		w := &laneWalker{
			prog: prog, allow: allow, handler: h, reports: &reports,
			visits: st.visits, warned: st.warned,
		}
		w.fnExits(h, flash.LaneVector{})
	}
	for _, r := range reports {
		cov.Rules[r.Rule]++
	}
	return reports, cov
}

// walkKey identifies one walker visit: entering function fn (node -1)
// or reaching node of fn's summary, with lane vector vec.
type walkKey struct {
	fn   string
	node int
	vec  flash.LaneVector
}

// visit is what the walker knows of one walkKey: busy while the walk is
// inside it (re-entering is the paper's fixed point), done once exits
// holds its result. One map of these serves as both the memo and the
// in-progress set.
type visit struct {
	exits      []flash.LaneVector
	busy, done bool
}

// enter looks key up: ok is false when the walk must stop or reuse a
// result (returned as exits); otherwise key is marked busy.
func (w *laneWalker) enter(key walkKey) (exits []flash.LaneVector, ok bool) {
	switch v := w.visits[key]; {
	case v.busy:
		return nil, false // fixed point: the cycle added no sends
	case v.done:
		return v.exits, false
	}
	w.visits[key] = visit{busy: true}
	return nil, true
}

// leave records key's result, ending its busy span, and returns it.
func (w *laneWalker) leave(key walkKey, exits []flash.LaneVector) []flash.LaneVector {
	w.visits[key] = visit{exits: exits, done: true}
	return exits
}

// fnExits returns the possible lane vectors at fn's exit when entered
// with vec. Re-entry with the same vector is the paper's fixed point.
func (w *laneWalker) fnExits(fn string, vec flash.LaneVector) []flash.LaneVector {
	s := w.prog.Funcs[fn]
	if s == nil {
		return []flash.LaneVector{vec} // external/macro: no sends
	}
	key := walkKey{fn, -1, vec}
	if exits, ok := w.enter(key); !ok {
		return exits
	}
	w.trace = append(w.trace, fn)
	exits := w.nodeExits(s, s.Entry, vec)
	w.trace = w.trace[:len(w.trace)-1]
	return w.leave(key, exits)
}

// nodeExits returns exit vectors reachable from node id of s with vec.
func (w *laneWalker) nodeExits(s *global.Summary, id int, vec flash.LaneVector) []flash.LaneVector {
	key := walkKey{s.Fn, id, vec}
	if exits, ok := w.enter(key); !ok {
		return exits
	}

	n := &s.Nodes[id]
	// Apply this node's annotations in order.
	for _, ann := range n.Anns {
		switch {
		case strings.HasPrefix(ann, "send:"):
			lane, _ := strconv.Atoi(ann[len("send:"):])
			vec = vec.Add(lane)
			if vec[lane] > w.allow[lane] {
				w.reportExceed(s, n, lane, vec[lane])
				return w.leave(key, nil) // cap: stop exploring past the violation
			}
		case strings.HasPrefix(ann, "space:"):
			lane, _ := strconv.Atoi(ann[len("space:"):])
			vec[lane] = 0 // handler suspended until space is available
		}
	}
	// Descend into callees, composing their exit-vector sets.
	vecs := []flash.LaneVector{vec}
	for _, callee := range n.Calls {
		var next []flash.LaneVector
		for _, v := range vecs {
			next = append(next, w.fnExits(callee, v)...)
		}
		vecs = dedupVecs(next)
		if len(vecs) == 0 {
			return w.leave(key, nil)
		}
	}
	if id == s.Exit {
		return w.leave(key, vecs)
	}
	var out []flash.LaneVector
	for i, succ := range n.Succs {
		_ = i
		for _, v := range vecs {
			out = append(out, w.nodeExits(s, succ, v)...)
		}
	}
	return w.leave(key, dedupVecs(out))
}

// reportExceed emits one violation with an inter-procedural backtrace.
func (w *laneWalker) reportExceed(s *global.Summary, n *global.Node, lane, count int) {
	site := fmt.Sprintf("%s:%d", n.File, n.Line)
	if w.warned[site+w.handler] {
		return
	}
	w.warned[site+w.handler] = true
	bt := strings.Join(w.trace, " -> ")
	pos := token.Pos{File: n.File, Line: n.Line, Col: 1}
	msg := fmt.Sprintf("handler %s exceeds lane %d allowance (%d > %d) via %s",
		w.handler, lane, count, w.allow[lane], bt)
	// The witness mirrors the call chain the walker is inside, one
	// step per entered function, ending at the offending send.
	steps := make([]engine.TraceStep, 0, len(w.trace)+1)
	for _, fn := range w.trace {
		step := engine.TraceStep{Rule: "call", Event: "enter " + fn}
		if fs := w.prog.Funcs[fn]; fs != nil {
			en := &fs.Nodes[fs.Entry]
			step.Pos = token.Pos{File: en.File, Line: en.Line, Col: 1}
		}
		steps = append(steps, step)
	}
	steps = append(steps, engine.TraceStep{Pos: pos, Rule: "exceed", Event: msg})
	*w.reports = append(*w.reports, engine.Report{
		SM: "lanes", Rule: "exceed", Fn: w.handler,
		Pos: pos, Msg: msg, Trace: steps,
	})
}

// checker-core: end

// CheckLanesCov runs the global pass over a linked program for every
// handler of spec, returning its reports and its dynamic coverage:
// "walk" counts handlers actually traversed (those with a linked
// summary), "exceed" counts allowance violations. The coverage is a
// single merged entry; CheckHandler calls this once per handler.
func CheckLanesCov(prog *global.Program, spec *flash.Spec) ([]engine.Report, *engine.Coverage) {
	st := walkStates.Get().(*walkState)
	defer st.release()
	return checkLanes(prog, spec, st)
}

// walkState is a handler walk's memo and warned set. The scheduler
// walks one handler per task, hundreds per protocol, so a worker takes
// its maps from walkStates instead of growing fresh ones per walk.
type walkState struct {
	visits map[walkKey]visit
	warned map[string]bool
}

var walkStates = &sync.Pool{New: func() any {
	return &walkState{visits: map[walkKey]visit{}, warned: map[string]bool{}}
}}

// reset empties both maps, keeping their buckets for the next walk.
func (st *walkState) reset() {
	clear(st.visits)
	clear(st.warned)
}

// release empties st, so a pooled state pins no walk's exit vectors,
// and returns it to the pool.
func (st *walkState) release() {
	st.reset()
	walkStates.Put(st)
}

// dedupVecs removes duplicate lane vectors.
func dedupVecs(in []flash.LaneVector) []flash.LaneVector {
	if len(in) <= 1 {
		return in
	}
	seen := map[flash.LaneVector]bool{}
	out := in[:0]
	for _, v := range in {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
