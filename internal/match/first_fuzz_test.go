package match_test

import (
	"sort"
	"sync"
	"testing"

	"flashmc/internal/cc/ast"
	"flashmc/internal/cc/parser"
	"flashmc/internal/cc/types"
	"flashmc/internal/cfg"
	"flashmc/internal/checkers"
	"flashmc/internal/core"
	"flashmc/internal/flashgen"
	"flashmc/internal/match"
)

// The reference matcher: the clone-per-candidate matcher the trail
// binder replaced, kept verbatim as FuzzMatchFirst's oracle. Every
// candidate gets its own copy of the caller's Env, so a failed
// candidate cannot leak bindings into the next one by construction.

func refClone(e match.Env) match.Env {
	out := make(match.Env, len(e)+2)
	for k, v := range e {
		out[k] = v
	}
	return out
}

func refStripParens(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.Paren)
		if !ok {
			return e
		}
		e = p.X
	}
}

func refExpr(pat, subj ast.Expr, env match.Env) (match.Env, bool) {
	out := refClone(env)
	if refExprInto(pat, subj, out) {
		return out, true
	}
	return nil, false
}

func refExprInto(pat, subj ast.Expr, env match.Env) bool {
	pat = refStripParens(pat)
	subj = refStripParens(subj)
	if w, ok := pat.(*ast.Wildcard); ok {
		return refBindWildcard(w, subj, env)
	}
	switch p := pat.(type) {
	case *ast.Ident:
		s, ok := subj.(*ast.Ident)
		return ok && s.Name == p.Name
	case *ast.IntLit:
		s, ok := subj.(*ast.IntLit)
		return ok && s.Value == p.Value
	case *ast.FloatLit:
		s, ok := subj.(*ast.FloatLit)
		return ok && s.Value == p.Value
	case *ast.CharLit:
		s, ok := subj.(*ast.CharLit)
		return ok && s.Value == p.Value
	case *ast.StringLit:
		s, ok := subj.(*ast.StringLit)
		return ok && s.Value == p.Value
	case *ast.Unary:
		s, ok := subj.(*ast.Unary)
		return ok && s.Op == p.Op && s.Postfix == p.Postfix && refExprInto(p.X, s.X, env)
	case *ast.Binary:
		s, ok := subj.(*ast.Binary)
		return ok && s.Op == p.Op && refExprInto(p.X, s.X, env) && refExprInto(p.Y, s.Y, env)
	case *ast.Assign:
		s, ok := subj.(*ast.Assign)
		return ok && s.Op == p.Op && refExprInto(p.LHS, s.LHS, env) && refExprInto(p.RHS, s.RHS, env)
	case *ast.Cond:
		s, ok := subj.(*ast.Cond)
		return ok && refExprInto(p.C, s.C, env) && refExprInto(p.Then, s.Then, env) && refExprInto(p.Else, s.Else, env)
	case *ast.Call:
		s, ok := subj.(*ast.Call)
		if !ok || len(s.Args) != len(p.Args) || !refExprInto(p.Fun, s.Fun, env) {
			return false
		}
		for i := range p.Args {
			if !refExprInto(p.Args[i], s.Args[i], env) {
				return false
			}
		}
		return true
	case *ast.Index:
		s, ok := subj.(*ast.Index)
		return ok && refExprInto(p.X, s.X, env) && refExprInto(p.Idx, s.Idx, env)
	case *ast.Member:
		s, ok := subj.(*ast.Member)
		return ok && s.Name == p.Name && s.Arrow == p.Arrow && refExprInto(p.X, s.X, env)
	case *ast.Cast:
		s, ok := subj.(*ast.Cast)
		return ok && types.Equal(s.To, p.To) && refExprInto(p.X, s.X, env)
	case *ast.SizeofExpr:
		s, ok := subj.(*ast.SizeofExpr)
		return ok && refExprInto(p.X, s.X, env)
	case *ast.SizeofType:
		s, ok := subj.(*ast.SizeofType)
		return ok && types.Equal(s.Of, p.Of)
	case *ast.InitList:
		s, ok := subj.(*ast.InitList)
		if !ok || len(s.Elems) != len(p.Elems) {
			return false
		}
		for i := range p.Elems {
			if !refExprInto(p.Elems[i], s.Elems[i], env) {
				return false
			}
		}
		return true
	}
	return false
}

func refBindWildcard(w *ast.Wildcard, subj ast.Expr, env match.Env) bool {
	if !refConstraintOK(w.Constraint, subj) {
		return false
	}
	if w.Name == "" || w.Name == "_" {
		return true
	}
	if prev, ok := env[w.Name]; ok {
		return match.EqualExpr(prev, subj)
	}
	env[w.Name] = subj
	return true
}

func refConstraintOK(c string, subj ast.Expr) bool {
	switch c {
	case "", "expr", "any", "node":
		return true
	case "scalar":
		t := subj.Type()
		return t == nil || types.IsScalar(t)
	case "unsigned", "int", "integer":
		t := subj.Type()
		return t == nil || types.IsInteger(t)
	case "float":
		t := subj.Type()
		return t != nil && types.IsFloat(t)
	case "ptr", "pointer":
		t := subj.Type()
		return t == nil || types.IsPointer(t)
	case "const":
		switch subj.(type) {
		case *ast.IntLit, *ast.FloatLit, *ast.CharLit, *ast.StringLit:
			return true
		}
		return false
	case "id":
		_, ok := subj.(*ast.Ident)
		return ok
	default:
		return true
	}
}

func refFind(pat ast.Expr, root ast.Node, env match.Env) []match.Result {
	var out []match.Result
	ast.Inspect(root, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if got, matched := refExpr(pat, e, env); matched {
			out = append(out, match.Result{Expr: e, Env: got})
		}
		return true
	})
	return out
}

// fuzzCorpus is what FuzzMatchFirst draws from: expression patterns
// and the CFG events (statements and branch conditions) of the seed-1
// flashgen protocols, the subjects the engine matches them against,
// with each event's node signature as cfg.Build recorded it.
type fuzzCorpus struct {
	pats   []ast.Expr
	events []ast.Node
	sigs   []uint64
}

var (
	corpusOnce sync.Once
	corpus     fuzzCorpus
)

// extraPatterns adds what the checkers' patterns lack: repeated
// wildcards, every constraint of the vocabulary, and patterns such as
// c(x:id) that bind a wildcard in an outer candidate, fail, and then
// hit an inner one — the case a trail left dirty by a failed candidate
// gets wrong.
var extraPatterns = []struct {
	src  string
	wild map[string]string
}{
	{"f(x, x)", map[string]string{"x": ""}},
	{"MISCBUS_READ_DB(x, x)", map[string]string{"x": ""}},
	{"DEC_DB_REF(k)", map[string]string{"k": "const"}},
	{"x = y", map[string]string{"x": "id", "y": ""}},
	{"x = x", map[string]string{"x": ""}},
	{"x + y", map[string]string{"x": "scalar", "y": "int"}},
	{"v", map[string]string{"v": "float"}},
	{"p->f", map[string]string{"p": "ptr"}},
	{"HANDLER_GLOBALS(h)", map[string]string{"h": "expr"}},
	{"(a == b) && (a != c)", map[string]string{"a": "", "b": "", "c": ""}},
	{"NI_SEND(t, d, w, x, y, z)", map[string]string{"t": "", "d": "", "w": "", "x": "", "y": "", "z": ""}},
	{"_", map[string]string{"_": ""}},
	{"c(x)", map[string]string{"c": "", "x": "id"}},
	{"c(x)", map[string]string{"c": "", "x": "const"}},
	{"c(x + k)", map[string]string{"c": "", "x": "", "k": "const"}},
	{"(x << k) | x", map[string]string{"x": "", "k": ""}},
}

func loadCorpus(tb testing.TB) fuzzCorpus {
	corpusOnce.Do(func() {
		gen := flashgen.Generate(flashgen.Options{Seed: 1})
		for _, p := range gen.Protocols {
			prog, err := core.Load(p.Name, p.Source(), p.RootFiles)
			if err != nil {
				tb.Fatalf("load %s: %v", p.Name, err)
			}
			for _, g := range prog.Graphs {
				for _, n := range g.Nodes {
					switch n.Kind {
					case cfg.KindStmt:
						corpus.events = append(corpus.events, n.Stmt)
					case cfg.KindBranch:
						corpus.events = append(corpus.events, n.Cond)
					default:
						continue
					}
					corpus.sigs = append(corpus.sigs, g.Sigs[n.ID])
				}
			}
			for _, c := range checkers.All() {
				sp, ok := c.(checkers.SMProvider)
				if !ok {
					continue
				}
				sm, _ := sp.BuildSM(p.Spec)
				for _, r := range sm.Rules {
					for _, alt := range r.Patterns {
						corpus.pats = append(corpus.pats, exprOf(alt.Stmt, alt.Expr)...)
					}
				}
				for _, cr := range sm.Cond {
					corpus.pats = append(corpus.pats, cr.Pattern)
				}
			}
		}
		for _, x := range extraPatterns {
			e, err := parser.ParseExprPattern(x.src, parser.PatternContext{Wildcards: x.wild})
			if err != nil {
				tb.Fatalf("pattern %q: %v", x.src, err)
			}
			corpus.pats = append(corpus.pats, e)
		}
	})
	if len(corpus.pats) == 0 || len(corpus.events) == 0 {
		tb.Fatal("empty fuzz corpus")
	}
	return corpus
}

// exprOf returns the expression patterns inside a rule alternative.
func exprOf(s ast.Stmt, e ast.Expr) []ast.Expr {
	switch x := s.(type) {
	case *ast.ExprStmt:
		return []ast.Expr{x.X}
	case *ast.Return:
		if x.X != nil {
			return []ast.Expr{x.X}
		}
	}
	if e != nil {
		return []ast.Expr{e}
	}
	return nil
}

// wildcardNames lists a pattern's binding wildcard names, sorted.
func wildcardNames(pat ast.Expr) []string {
	seen := map[string]bool{}
	ast.Inspect(pat, func(n ast.Node) bool {
		if w, ok := n.(*ast.Wildcard); ok && w.Name != "" && w.Name != "_" {
			seen[w.Name] = true
		}
		return true
	})
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// subExprs lists the expressions under root in ast.Inspect order.
func subExprs(root ast.Node) []ast.Expr {
	var out []ast.Expr
	ast.Inspect(root, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			out = append(out, e)
		}
		return true
	})
	return out
}

// sameEnv reports whether two environments bind the same names to
// structurally equal expressions.
func sameEnv(a, b match.Env) bool {
	if len(a) != len(b) {
		return false
	}
	for k, x := range a {
		y, ok := b[k]
		if !ok || !match.EqualExpr(x, y) {
			return false
		}
	}
	return true
}

// identicalEnv reports whether two environments hold the same names
// bound to the very same nodes: the check that a call left the
// caller's Env alone.
func identicalEnv(a, b match.Env) bool {
	if len(a) != len(b) {
		return false
	}
	for k, x := range a {
		if y, ok := b[k]; !ok || x != y {
			return false
		}
	}
	return true
}

// FuzzMatchFirst checks the trail binder against the reference
// matcher. An input picks a pattern (a compiled rule or cond pattern of
// the six SM checkers, or one of extraPatterns), a window of up to
// eight CFG events of the seed-1 protocols, and a base Env: bit i of
// envBits pre-binds the pattern's i-th wildcard to a sub-expression of
// the window picked by pick, and bit 7 adds an unrelated binding. For
// each event, First must return Find's first hit with a structurally
// equal Env and miss exactly when refFind finds nothing, Find must
// equal refFind element by element, no call may change the base Env,
// and a hit implies the event node's signature holds every bit of the
// pattern's (the filter the engine applies before calling First).
func FuzzMatchFirst(f *testing.F) {
	f.Add(uint16(0), uint32(0), uint8(7), uint8(0), uint16(0))
	f.Add(uint16(3), uint32(1000), uint8(3), uint8(1), uint16(5))
	f.Add(uint16(40), uint32(20000), uint8(7), uint8(0xff), uint16(77))
	f.Add(uint16(65535), uint32(123456), uint8(1), uint8(0x81), uint16(2))
	f.Fuzz(func(t *testing.T, patIdx uint16, start uint32, window, envBits uint8, pick uint16) {
		c := loadCorpus(t)
		pat := c.pats[int(patIdx)%len(c.pats)]
		first := int(start % uint32(len(c.events)))
		last := min(first+1+int(window%8), len(c.events))
		events := c.events[first:last]

		var pool []ast.Expr
		for _, ev := range events {
			pool = append(pool, subExprs(ev)...)
		}
		base := match.Env{}
		for i, name := range wildcardNames(pat) {
			if i < 7 && envBits&(1<<i) != 0 && len(pool) > 0 {
				base[name] = pool[(int(pick)+i)%len(pool)]
			}
		}
		if envBits&0x80 != 0 && len(pool) > 0 {
			base["unrelated"] = pool[int(pick)%len(pool)]
		}
		before := refClone(base)
		patSig := match.Sig(pat)

		for k, ev := range events {
			want := refFind(pat, ev, base)
			hit, got, ok := match.First(pat, ev, base)
			if ok != (len(want) > 0) {
				t.Fatalf("First(%s, %s) ok=%v, refFind found %d",
					ast.ExprString(pat), eventString(ev), ok, len(want))
			}
			if nodeSig := c.sigs[first+k]; ok && !match.MayMatch(nodeSig, patSig) {
				t.Fatalf("First(%s, %s) hit %s, but the node signature %#x lacks bits of the pattern's %#x",
					ast.ExprString(pat), eventString(ev), ast.ExprString(hit), nodeSig, patSig)
			}
			if ok && (hit != want[0].Expr || !sameEnv(got, want[0].Env)) {
				t.Fatalf("First(%s, %s) = %s %v, refFind[0] = %s %v",
					ast.ExprString(pat), eventString(ev), ast.ExprString(hit), got,
					ast.ExprString(want[0].Expr), want[0].Env)
			}
			all := match.Find(pat, ev, base)
			if len(all) != len(want) {
				t.Fatalf("Find(%s, %s) found %d, refFind %d",
					ast.ExprString(pat), eventString(ev), len(all), len(want))
			}
			for i := range all {
				if all[i].Expr != want[i].Expr || !sameEnv(all[i].Env, want[i].Env) {
					t.Fatalf("Find(%s, %s)[%d] = %s %v, refFind = %s %v",
						ast.ExprString(pat), eventString(ev), i,
						ast.ExprString(all[i].Expr), all[i].Env,
						ast.ExprString(want[i].Expr), want[i].Env)
				}
			}
			if !identicalEnv(base, before) {
				t.Fatalf("matching %s against %s changed the caller's Env: %v, was %v",
					ast.ExprString(pat), eventString(ev), base, before)
			}
		}
	})
}

func eventString(n ast.Node) string {
	if s, ok := n.(ast.Stmt); ok {
		return ast.StmtString(s)
	}
	return ast.ExprString(n.(ast.Expr))
}
