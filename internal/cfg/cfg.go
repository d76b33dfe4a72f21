// Package cfg builds control-flow graphs for protocol-C functions.
// The graphs drive the metal state-machine engine (package engine),
// the Table 1 path statistics (package paths), and the
// inter-procedural lane analysis (package global).
//
// Node granularity is one statement or one branch condition. Branch
// out-edges carry True/False labels so checkers can be sensitive to
// the branched-on condition (the paper's "routines that return 0 or 1
// depending on whether they freed a buffer", §6).
package cfg

import (
	"fmt"

	"flashmc/internal/cc/ast"
	"flashmc/internal/cc/token"
	"flashmc/internal/match"
)

// NodeKind classifies CFG nodes.
type NodeKind int

// Node kinds.
const (
	KindEntry NodeKind = iota
	KindExit
	KindStmt   // one non-branching statement (Stmt field set)
	KindBranch // a decision point (Cond field set)
	KindJoin   // structural no-op merge point
)

func (k NodeKind) String() string {
	switch k {
	case KindEntry:
		return "entry"
	case KindExit:
		return "exit"
	case KindStmt:
		return "stmt"
	case KindBranch:
		return "branch"
	case KindJoin:
		return "join"
	}
	return "?"
}

// EdgeLabel distinguishes branch outcomes.
type EdgeLabel int

// Edge labels.
const (
	Always EdgeLabel = iota
	True
	False
	CaseEq  // switch dispatch edge for one case value
	Default // switch default / implicit default edge
)

// Edge is one directed CFG edge.
type Edge struct {
	From, To *Node
	Label    EdgeLabel
	// CaseVal is the case expression for CaseEq edges.
	CaseVal ast.Expr
}

// Node is one CFG node.
type Node struct {
	ID   int
	Kind NodeKind
	Stmt ast.Stmt // KindStmt
	Cond ast.Expr // KindBranch
	P    token.Pos

	Succs []*Edge
	Preds []*Edge
}

// Pos returns the node's source position.
func (n *Node) Pos() token.Pos { return n.P }

func (n *Node) String() string {
	switch n.Kind {
	case KindStmt:
		return fmt.Sprintf("n%d %s", n.ID, ast.StmtString(n.Stmt))
	case KindBranch:
		return fmt.Sprintf("n%d if(%s)", n.ID, ast.ExprString(n.Cond))
	default:
		return fmt.Sprintf("n%d <%s>", n.ID, n.Kind)
	}
}

// Graph is the CFG of one function.
type Graph struct {
	Fn    *ast.FuncDecl
	Entry *Node
	Exit  *Node
	Nodes []*Node
	// Sigs holds each node's event signature, indexed by node ID:
	// match.Sig of the statement of a KindStmt node or the condition
	// of a KindBranch node, 0 for structural nodes. Build fills it once,
	// so the SMs that check one graph concurrently read it unlocked.
	Sigs []uint64
}

// Build constructs the CFG for fn (which must have a body).
func Build(fn *ast.FuncDecl) *Graph {
	b := &builder{g: &Graph{Fn: fn}, labels: map[string]*Node{}}
	b.g.Entry = b.newNode(KindEntry, fn.Pos())
	b.g.Exit = b.newNode(KindExit, fn.EndPos)
	end := b.stmtSeq(b.g.Entry, fn.Body)
	if end != nil {
		b.connect(end, b.g.Exit, Always, nil)
	}
	// goto fixups
	for _, g := range b.gotos {
		target, ok := b.labels[g.label]
		if !ok {
			// Undefined label: route to exit so paths stay finite.
			target = b.g.Exit
		}
		b.connect(g.node, target, Always, nil)
	}
	b.g.Sigs = make([]uint64, len(b.g.Nodes))
	for i, n := range b.g.Nodes {
		switch n.Kind {
		case KindStmt:
			b.g.Sigs[i] = match.Sig(n.Stmt)
		case KindBranch:
			b.g.Sigs[i] = match.Sig(n.Cond)
		}
	}
	return b.g
}

type pendingGoto struct {
	node  *Node
	label string
}

type builder struct {
	g           *Graph
	breakStack  []*Node
	continueStk []*Node
	labels      map[string]*Node
	gotos       []pendingGoto
}

func (b *builder) newNode(k NodeKind, pos token.Pos) *Node {
	n := &Node{ID: len(b.g.Nodes), Kind: k, P: pos}
	b.g.Nodes = append(b.g.Nodes, n)
	return n
}

func (b *builder) stmtNode(s ast.Stmt) *Node {
	n := b.newNode(KindStmt, s.Pos())
	n.Stmt = s
	return n
}

func (b *builder) join(pos token.Pos) *Node { return b.newNode(KindJoin, pos) }

func (b *builder) connect(from, to *Node, label EdgeLabel, caseVal ast.Expr) {
	if from == nil || to == nil {
		return
	}
	e := &Edge{From: from, To: to, Label: label, CaseVal: caseVal}
	from.Succs = append(from.Succs, e)
	to.Preds = append(to.Preds, e)
}

// labelNode returns (creating on demand) the join node for a label.
func (b *builder) labelNode(name string, pos token.Pos) *Node {
	if n, ok := b.labels[name]; ok {
		return n
	}
	n := b.join(pos)
	b.labels[name] = n
	return n
}

// stmtSeq wires statement s after node cur and returns the node from
// which execution continues, or nil if control never falls through
// (return/break/continue/goto on all arms). A nil cur means the
// statement is statically unreachable; its nodes are still built (so
// statistics see them) but receive no incoming edge.
func (b *builder) stmtSeq(cur *Node, s ast.Stmt) *Node {
	switch x := s.(type) {
	case nil:
		return cur
	case *ast.ExprStmt, *ast.DeclStmt, *ast.Empty:
		n := b.stmtNode(s)
		b.connect(cur, n, Always, nil)
		return n
	case *ast.Block:
		for _, st := range x.Stmts {
			cur = b.stmtSeq(cur, st)
		}
		return cur
	case *ast.If:
		br := b.newNode(KindBranch, x.Pos())
		br.Cond = x.Cond
		b.connect(cur, br, Always, nil)
		tEntry := b.join(x.Then.Pos())
		b.connect(br, tEntry, True, nil)
		tEnd := b.stmtSeq(tEntry, x.Then)
		var eEnd *Node
		if x.Else != nil {
			eEntry := b.join(x.Else.Pos())
			b.connect(br, eEntry, False, nil)
			eEnd = b.stmtSeq(eEntry, x.Else)
		} else {
			eEnd = b.join(x.Pos())
			b.connect(br, eEnd, False, nil)
		}
		if tEnd == nil && eEnd == nil {
			return nil
		}
		j := b.join(x.Pos())
		b.connect(tEnd, j, Always, nil)
		b.connect(eEnd, j, Always, nil)
		return j
	case *ast.While:
		head := b.join(x.Pos())
		b.connect(cur, head, Always, nil)
		br := b.newNode(KindBranch, x.Pos())
		br.Cond = x.Cond
		b.connect(head, br, Always, nil)
		bodyEntry := b.join(x.Body.Pos())
		b.connect(br, bodyEntry, True, nil)
		exit := b.join(x.Pos())
		b.connect(br, exit, False, nil)
		b.pushLoop(exit, head)
		bodyEnd := b.stmtSeq(bodyEntry, x.Body)
		b.popLoop()
		b.connect(bodyEnd, head, Always, nil) // back edge
		return exit
	case *ast.DoWhile:
		bodyEntry := b.join(x.Body.Pos())
		b.connect(cur, bodyEntry, Always, nil)
		br := b.newNode(KindBranch, x.Pos())
		br.Cond = x.Cond
		exit := b.join(x.Pos())
		b.pushLoop(exit, br)
		bodyEnd := b.stmtSeq(bodyEntry, x.Body)
		b.popLoop()
		b.connect(bodyEnd, br, Always, nil)
		b.connect(br, bodyEntry, True, nil) // back edge
		b.connect(br, exit, False, nil)
		return exit
	case *ast.For:
		cur = b.stmtSeq(cur, x.Init)
		head := b.join(x.Pos())
		b.connect(cur, head, Always, nil)
		exit := b.join(x.Pos())
		var bodyFrom *Node
		if x.Cond != nil {
			br := b.newNode(KindBranch, x.Pos())
			br.Cond = x.Cond
			b.connect(head, br, Always, nil)
			bodyEntry := b.join(x.Body.Pos())
			b.connect(br, bodyEntry, True, nil)
			b.connect(br, exit, False, nil)
			bodyFrom = bodyEntry
		} else {
			bodyFrom = head
		}
		var post *Node
		if x.Post != nil {
			ps := &ast.ExprStmt{X: x.Post}
			ps.P = x.Post.Pos()
			post = b.stmtNode(ps)
		} else {
			post = b.join(x.Pos())
		}
		b.pushLoop(exit, post)
		bodyEnd := b.stmtSeq(bodyFrom, x.Body)
		b.popLoop()
		b.connect(bodyEnd, post, Always, nil)
		b.connect(post, head, Always, nil) // back edge
		if x.Cond == nil && len(exit.Preds) == 0 {
			return nil // for(;;) with no break never falls through
		}
		return exit
	case *ast.Switch:
		br := b.newNode(KindBranch, x.Pos())
		br.Cond = x.Tag
		b.connect(cur, br, Always, nil)
		exit := b.join(x.Pos())
		b.breakStack = append(b.breakStack, exit)
		var flow *Node
		sawDefault := false
		for _, st := range x.Body.Stmts {
			if cs, ok := st.(*ast.Case); ok {
				entry := b.stmtNode(cs)
				if cs.Value == nil {
					sawDefault = true
					b.connect(br, entry, Default, nil)
				} else {
					b.connect(br, entry, CaseEq, cs.Value)
				}
				b.connect(flow, entry, Always, nil) // fallthrough
				flow = entry
				continue
			}
			flow = b.stmtSeq(flow, st)
		}
		b.breakStack = b.breakStack[:len(b.breakStack)-1]
		if !sawDefault {
			b.connect(br, exit, Default, nil)
		}
		b.connect(flow, exit, Always, nil)
		if len(exit.Preds) == 0 {
			return nil
		}
		return exit
	case *ast.Case:
		// Case outside switch body handling (shouldn't happen); treat
		// as a plain node.
		n := b.stmtNode(s)
		b.connect(cur, n, Always, nil)
		return n
	case *ast.Break:
		n := b.stmtNode(s)
		b.connect(cur, n, Always, nil)
		if len(b.breakStack) > 0 {
			b.connect(n, b.breakStack[len(b.breakStack)-1], Always, nil)
		} else {
			b.connect(n, b.g.Exit, Always, nil)
		}
		return nil
	case *ast.Continue:
		n := b.stmtNode(s)
		b.connect(cur, n, Always, nil)
		if len(b.continueStk) > 0 {
			b.connect(n, b.continueStk[len(b.continueStk)-1], Always, nil)
		} else {
			b.connect(n, b.g.Exit, Always, nil)
		}
		return nil
	case *ast.Return:
		n := b.stmtNode(s)
		b.connect(cur, n, Always, nil)
		b.connect(n, b.g.Exit, Always, nil)
		return nil
	case *ast.Goto:
		n := b.stmtNode(s)
		b.connect(cur, n, Always, nil)
		b.gotos = append(b.gotos, pendingGoto{n, x.Label})
		return nil
	case *ast.Labeled:
		ln := b.labelNode(x.Label, x.Pos())
		b.connect(cur, ln, Always, nil)
		return b.stmtSeq(ln, x.Stmt)
	default:
		n := b.stmtNode(s)
		b.connect(cur, n, Always, nil)
		return n
	}
}

func (b *builder) pushLoop(brk, cont *Node) {
	b.breakStack = append(b.breakStack, brk)
	b.continueStk = append(b.continueStk, cont)
}

func (b *builder) popLoop() {
	b.breakStack = b.breakStack[:len(b.breakStack)-1]
	b.continueStk = b.continueStk[:len(b.continueStk)-1]
}

// BackEdges returns the set of edges that close cycles, identified by
// depth-first search from the entry node.
func (g *Graph) BackEdges() map[*Edge]bool {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]int, len(g.Nodes))
	back := make(map[*Edge]bool)
	var dfs func(n *Node)
	dfs = func(n *Node) {
		color[n.ID] = grey
		for _, e := range n.Succs {
			switch color[e.To.ID] {
			case white:
				dfs(e.To)
			case grey:
				back[e] = true
			}
		}
		color[n.ID] = black
	}
	dfs(g.Entry)
	return back
}

// Reachable returns the nodes reachable from entry.
func (g *Graph) Reachable() map[*Node]bool {
	seen := map[*Node]bool{}
	stack := []*Node{g.Entry}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		for _, e := range n.Succs {
			if !seen[e.To] {
				stack = append(stack, e.To)
			}
		}
	}
	return seen
}

// Weight is the path-length contribution of a node: statements and
// branches count one source line, structural nodes count zero.
func (n *Node) Weight() int64 {
	switch n.Kind {
	case KindStmt, KindBranch:
		return 1
	}
	return 0
}
