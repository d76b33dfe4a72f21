// Package global implements the paper's inter-procedural framework
// (§3.2, §7): checkers run a local pass that emits client-annotated
// flow graphs for every function, then a global pass links the emitted
// graphs into a whole-protocol call graph and traverses it.
//
// Summaries are plain data (JSON-serializable), mirroring xg++'s
// emit-to-file/read-back design, so the local and global passes can
// run in separate processes (cmd/mcheck --emit / --link) or in one.
package global

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"flashmc/internal/cc/ast"
	"flashmc/internal/cfg"
)

// Node is one node of a summarized flow graph.
type Node struct {
	ID int `json:"id"`
	// Anns carries client annotations attached by the local pass
	// (e.g. "send lane=1").
	Anns []string `json:"anns,omitempty"`
	// Calls lists callees invoked at this node, in source order.
	Calls []string `json:"calls,omitempty"`
	// File and Line locate the node for backtraces and report joins.
	File string `json:"file,omitempty"`
	Line int    `json:"line,omitempty"`
	// Succs are successor node IDs.
	Succs []int `json:"succs,omitempty"`
	// Back flags successors reached via back edges (loops), parallel
	// to Succs.
	Back []bool `json:"back,omitempty"`
}

// Summary is the annotated flow graph of one function.
type Summary struct {
	Fn    string `json:"fn"`
	File  string `json:"file,omitempty"`
	Entry int    `json:"entry"`
	Exit  int    `json:"exit"`
	Nodes []Node `json:"nodes"`
}

// Annotator attaches client annotations to a CFG node during the
// local pass; nil or empty means no annotation.
type Annotator func(n *cfg.Node) []string

// FromCFG summarizes one function's CFG, recording call sites and the
// client's annotations.
func FromCFG(g *cfg.Graph, annotate Annotator) *Summary {
	s := &Summary{
		Fn:    g.Fn.Name,
		File:  g.Fn.Pos().File,
		Entry: g.Entry.ID,
		Exit:  g.Exit.ID,
		Nodes: make([]Node, len(g.Nodes)),
	}
	back := g.BackEdges()
	for i, n := range g.Nodes {
		sn := Node{ID: n.ID, File: n.Pos().File, Line: n.Pos().Line}
		if annotate != nil {
			sn.Anns = annotate(n)
		}
		var root ast.Node
		switch n.Kind {
		case cfg.KindStmt:
			root = n.Stmt
		case cfg.KindBranch:
			root = n.Cond
		}
		if root != nil {
			ast.Inspect(root, func(x ast.Node) bool {
				if call, ok := x.(*ast.Call); ok {
					if id, ok := call.Fun.(*ast.Ident); ok {
						sn.Calls = append(sn.Calls, id.Name)
					}
				}
				return true
			})
		}
		for _, e := range n.Succs {
			sn.Succs = append(sn.Succs, e.To.ID)
			sn.Back = append(sn.Back, back[e])
		}
		s.Nodes[i] = sn
	}
	return s
}

// Program is a linked whole-protocol call graph.
type Program struct {
	Funcs map[string]*Summary `json:"funcs"`
}

// Link combines per-function summaries. Duplicate function names keep
// the first definition and report the collision.
func Link(summaries []*Summary) (*Program, []error) {
	p := &Program{Funcs: map[string]*Summary{}}
	var errs []error
	for _, s := range summaries {
		if prev, ok := p.Funcs[s.Fn]; ok {
			errs = append(errs, fmt.Errorf("duplicate definition of %s (kept %s, dropped %s)",
				s.Fn, prev.File, s.File))
			continue
		}
		p.Funcs[s.Fn] = s
	}
	return p, errs
}

// Write serializes summaries (the local pass's emit step).
func Write(w io.Writer, summaries []*Summary) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "")
	return enc.Encode(summaries)
}

// Marshal returns the canonical byte serialization of summaries. The
// encoding is deterministic — struct fields emit in declaration
// order, summaries in input order, and no maps participate — so equal
// summary sets marshal to equal bytes. The depot's content addresses
// are computed over these bytes; TestMarshalDeterministic pins the
// format against incidental drift (a future map-backed field, a
// randomized ordering) that would silently invalidate every cache.
func Marshal(summaries []*Summary) ([]byte, error) {
	return json.Marshal(summaries)
}

// Marshal returns the canonical serialization of the linked program.
// The Funcs map marshals with sorted keys (encoding/json's map rule),
// so equal programs marshal to equal bytes regardless of insertion
// or link order.
func (p *Program) Marshal() ([]byte, error) {
	return json.Marshal(p)
}

// Read deserializes summaries written by Write.
func Read(r io.Reader) ([]*Summary, error) {
	var out []*Summary
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}

// Callees returns the distinct functions a summary calls, sorted.
func (s *Summary) Callees() []string {
	set := map[string]bool{}
	for _, n := range s.Nodes {
		for _, c := range n.Calls {
			set[c] = true
		}
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Reachable returns all functions transitively callable from roots
// (functions missing from the program — externals/macros — are
// ignored).
func (p *Program) Reachable(roots []string) map[string]bool {
	seen := map[string]bool{}
	var stack []string
	for _, r := range roots {
		if p.Funcs[r] != nil && !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		fn := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range p.Funcs[fn].Callees() {
			if p.Funcs[c] != nil && !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	return seen
}
