// Package match implements structural AST pattern matching with
// wildcard binding — the mechanism behind metal patterns. A pattern is
// an ordinary protocol-C AST in which ast.Wildcard nodes act as typed
// holes: they match any expression satisfying their constraint and
// bind it by name. Repeated wildcards must bind structurally equal
// expressions, so a pattern like "memcpy(dst, dst, n)" only matches
// calls whose first two arguments coincide.
//
// Parentheses are transparent on both sides: the pattern "f(x)"
// matches the subject "(f((x)))", mirroring xg++'s source-level
// matching behaviour.
//
// Matching never copies the caller's Env. A binder reads it as the
// base and records new bindings on a trail (a short slice of name,
// expression pairs); a failed candidate truncates the trail, and an
// Env map is built only for a hit. Nearly every evaluation the engine
// makes is a miss, so a miss allocates nothing. First returns the
// first hit of a sub-expression search — all the engine needs — and
// stops there; Find returns every hit.
//
// Sig summarizes an AST as a 64-bit set of identifier-name bits. A
// pattern can hit under a root only when the root's signature holds
// all of the pattern's, so the engine skips the other pairs without
// walking them.
package match

import (
	"flashmc/internal/cc/ast"
	"flashmc/internal/cc/types"
)

// Env carries wildcard bindings accumulated during a match. A nil Env
// is a valid empty environment.
type Env map[string]ast.Expr

// binder holds the bindings of one match attempt: the caller's Env,
// read-only, plus the trail of bindings the attempt added. The trail
// starts in a [trailLen]binding array on the caller's stack and moves
// to the heap only past its length, so a match that binds a few
// wildcards and then fails allocates nothing.
type binder struct {
	base  Env
	trail []binding
}

type binding struct {
	name string
	expr ast.Expr
}

// trailLen covers every pattern the built-in checkers compile: the
// widest binds six wildcards.
const trailLen = 8

// bind appends to the trail. It grows the trail into a fresh array
// rather than with append, which would let escape analysis move every
// caller's stack array to the heap.
func (b *binder) bind(name string, e ast.Expr) {
	if len(b.trail) == cap(b.trail) {
		grown := make([]binding, len(b.trail), 2*cap(b.trail))
		copy(grown, b.trail)
		b.trail = grown
	}
	b.trail = b.trail[:len(b.trail)+1]
	b.trail[len(b.trail)-1] = binding{name, e}
}

func (b *binder) lookup(name string) (ast.Expr, bool) {
	for _, x := range b.trail {
		if x.name == name {
			return x.expr, true
		}
	}
	e, ok := b.base[name]
	return e, ok
}

// try matches pat against subj from an empty trail, so a failed
// candidate leaves nothing behind for the next one.
func (b *binder) try(pat, subj ast.Expr) bool {
	b.trail = b.trail[:0]
	return exprInto(pat, subj, b)
}

// env builds the Env of a hit: a fresh map of base plus trail.
func (b *binder) env() Env {
	out := b.base.clone()
	for _, x := range b.trail {
		out[x.name] = x.expr
	}
	return out
}

// clone copies e into a fresh map.
func (e Env) clone() Env {
	out := make(Env, len(e)+2)
	for k, v := range e {
		out[k] = v
	}
	return out
}

// stripParens removes Paren wrappers.
func stripParens(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.Paren)
		if !ok {
			return e
		}
		e = p.X
	}
}

// Expr matches pattern pat against subject subj under env. On success
// it returns the extended environment (a copy; env is not mutated).
func Expr(pat, subj ast.Expr, env Env) (Env, bool) {
	var buf [trailLen]binding
	b := binder{base: env, trail: buf[:0]}
	if b.try(pat, subj) {
		return b.env(), true
	}
	return nil, false
}

func exprInto(pat, subj ast.Expr, b *binder) bool {
	pat = stripParens(pat)
	subj = stripParens(subj)
	if w, ok := pat.(*ast.Wildcard); ok {
		return bindWildcard(w, subj, b)
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
		return ok && s.Op == p.Op && s.Postfix == p.Postfix && exprInto(p.X, s.X, b)
	case *ast.Binary:
		s, ok := subj.(*ast.Binary)
		return ok && s.Op == p.Op && exprInto(p.X, s.X, b) && exprInto(p.Y, s.Y, b)
	case *ast.Assign:
		s, ok := subj.(*ast.Assign)
		return ok && s.Op == p.Op && exprInto(p.LHS, s.LHS, b) && exprInto(p.RHS, s.RHS, b)
	case *ast.Cond:
		s, ok := subj.(*ast.Cond)
		return ok && exprInto(p.C, s.C, b) && exprInto(p.Then, s.Then, b) && exprInto(p.Else, s.Else, b)
	case *ast.Call:
		s, ok := subj.(*ast.Call)
		if !ok || len(s.Args) != len(p.Args) || !exprInto(p.Fun, s.Fun, b) {
			return false
		}
		for i := range p.Args {
			if !exprInto(p.Args[i], s.Args[i], b) {
				return false
			}
		}
		return true
	case *ast.Index:
		s, ok := subj.(*ast.Index)
		return ok && exprInto(p.X, s.X, b) && exprInto(p.Idx, s.Idx, b)
	case *ast.Member:
		s, ok := subj.(*ast.Member)
		return ok && s.Name == p.Name && s.Arrow == p.Arrow && exprInto(p.X, s.X, b)
	case *ast.Cast:
		s, ok := subj.(*ast.Cast)
		return ok && types.Equal(s.To, p.To) && exprInto(p.X, s.X, b)
	case *ast.SizeofExpr:
		s, ok := subj.(*ast.SizeofExpr)
		return ok && exprInto(p.X, s.X, b)
	case *ast.SizeofType:
		s, ok := subj.(*ast.SizeofType)
		return ok && types.Equal(s.Of, p.Of)
	case *ast.InitList:
		s, ok := subj.(*ast.InitList)
		if !ok || len(s.Elems) != len(p.Elems) {
			return false
		}
		for i := range p.Elems {
			if !exprInto(p.Elems[i], s.Elems[i], b) {
				return false
			}
		}
		return true
	}
	return false
}

// bindWildcard checks w's constraint against subj and records or
// verifies the binding.
func bindWildcard(w *ast.Wildcard, subj ast.Expr, b *binder) bool {
	if !constraintOK(w.Constraint, subj) {
		return false
	}
	if w.Name == "" || w.Name == "_" {
		return true
	}
	if prev, ok := b.lookup(w.Name); ok {
		return EqualExpr(prev, subj)
	}
	b.bind(w.Name, subj)
	return true
}

// constraintOK implements the wildcard constraint vocabulary. Unknown
// subject types (unchecked pattern fragments, lenient frontend) are
// accepted by the scalar, integer and pointer constraints, matching the
// paper's permissive matching of macro-heavy code. "float" is the
// exception: it rejects an unknown type, or the no-float checker would
// flag every untyped expression.
func constraintOK(c string, subj ast.Expr) bool {
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
		// Unknown constraint names are permissive; metal's compiler
		// validates them at checker-compile time.
		return true
	}
}

// EqualExpr reports structural equality of two expressions (parens
// transparent, wildcards compare by name).
func EqualExpr(a, b ast.Expr) bool {
	a, b = stripParens(a), stripParens(b)
	switch x := a.(type) {
	case *ast.Ident:
		y, ok := b.(*ast.Ident)
		return ok && x.Name == y.Name
	case *ast.IntLit:
		y, ok := b.(*ast.IntLit)
		return ok && x.Value == y.Value
	case *ast.FloatLit:
		y, ok := b.(*ast.FloatLit)
		return ok && x.Value == y.Value
	case *ast.CharLit:
		y, ok := b.(*ast.CharLit)
		return ok && x.Value == y.Value
	case *ast.StringLit:
		y, ok := b.(*ast.StringLit)
		return ok && x.Value == y.Value
	case *ast.Unary:
		y, ok := b.(*ast.Unary)
		return ok && x.Op == y.Op && x.Postfix == y.Postfix && EqualExpr(x.X, y.X)
	case *ast.Binary:
		y, ok := b.(*ast.Binary)
		return ok && x.Op == y.Op && EqualExpr(x.X, y.X) && EqualExpr(x.Y, y.Y)
	case *ast.Assign:
		y, ok := b.(*ast.Assign)
		return ok && x.Op == y.Op && EqualExpr(x.LHS, y.LHS) && EqualExpr(x.RHS, y.RHS)
	case *ast.Cond:
		y, ok := b.(*ast.Cond)
		return ok && EqualExpr(x.C, y.C) && EqualExpr(x.Then, y.Then) && EqualExpr(x.Else, y.Else)
	case *ast.Call:
		y, ok := b.(*ast.Call)
		if !ok || len(x.Args) != len(y.Args) || !EqualExpr(x.Fun, y.Fun) {
			return false
		}
		for i := range x.Args {
			if !EqualExpr(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	case *ast.Index:
		y, ok := b.(*ast.Index)
		return ok && EqualExpr(x.X, y.X) && EqualExpr(x.Idx, y.Idx)
	case *ast.Member:
		y, ok := b.(*ast.Member)
		return ok && x.Name == y.Name && x.Arrow == y.Arrow && EqualExpr(x.X, y.X)
	case *ast.Cast:
		y, ok := b.(*ast.Cast)
		return ok && types.Equal(x.To, y.To) && EqualExpr(x.X, y.X)
	case *ast.SizeofExpr:
		y, ok := b.(*ast.SizeofExpr)
		return ok && EqualExpr(x.X, y.X)
	case *ast.SizeofType:
		y, ok := b.(*ast.SizeofType)
		return ok && types.Equal(x.Of, y.Of)
	case *ast.Wildcard:
		y, ok := b.(*ast.Wildcard)
		return ok && x.Name == y.Name
	case *ast.InitList:
		y, ok := b.(*ast.InitList)
		if !ok || len(x.Elems) != len(y.Elems) {
			return false
		}
		for i := range x.Elems {
			if !EqualExpr(x.Elems[i], y.Elems[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// Stmt matches a statement pattern against a subject statement. An
// ExprStmt pattern also matches Return-with-value subjects only when
// the pattern itself is a Return; statement kinds otherwise must
// agree.
func Stmt(pat, subj ast.Stmt, env Env) (Env, bool) {
	switch p := pat.(type) {
	case *ast.ExprStmt:
		s, ok := subj.(*ast.ExprStmt)
		if !ok {
			return nil, false
		}
		return Expr(p.X, s.X, env)
	case *ast.Return:
		s, ok := subj.(*ast.Return)
		if !ok {
			return nil, false
		}
		if p.X == nil {
			if s.X == nil {
				return env.clone(), true
			}
			return nil, false
		}
		if s.X == nil {
			return nil, false
		}
		return Expr(p.X, s.X, env)
	case *ast.Break:
		if _, ok := subj.(*ast.Break); ok {
			return env.clone(), true
		}
	case *ast.Continue:
		if _, ok := subj.(*ast.Continue); ok {
			return env.clone(), true
		}
	case *ast.Goto:
		if s, ok := subj.(*ast.Goto); ok && s.Label == p.Label {
			return env.clone(), true
		}
	case *ast.Empty:
		if _, ok := subj.(*ast.Empty); ok {
			return env.clone(), true
		}
	}
	return nil, false
}

// Result is one successful sub-expression match.
type Result struct {
	Expr ast.Expr
	Env  Env
}

// Find collects every sub-expression of root that matches pat. root
// may be any AST node (statement, expression or declaration); the
// search recurses through all expressions it contains, in ast.Inspect
// order.
func Find(pat ast.Expr, root ast.Node, env Env) []Result {
	var out []Result
	var buf [trailLen]binding
	b := binder{base: env, trail: buf[:0]}
	ast.Inspect(root, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok && b.try(pat, e) {
			out = append(out, Result{Expr: e, Env: b.env()})
		}
		return true
	})
	return out
}

// First returns the first sub-expression of root, in Find's order, that
// matches pat, with its environment. It is Find(pat, root, env)[0]
// without the search past the first hit; ok is false when Find would
// return nothing.
func First(pat ast.Expr, root ast.Node, env Env) (hit ast.Expr, got Env, ok bool) {
	var buf [trailLen]binding
	b := binder{base: env, trail: buf[:0]}
	ast.Inspect(root, func(n ast.Node) bool {
		if ok {
			return false
		}
		if e, isExpr := n.(ast.Expr); isExpr && b.try(pat, e) {
			hit, ok = e, true
			return false
		}
		return true
	})
	if !ok {
		return nil, nil, false
	}
	return hit, b.env(), true
}

// Sig returns n's identifier signature: the union, over every
// *ast.Ident that ast.Inspect reaches from n, of one bit chosen by a
// hash of the identifier's name. Wildcards add no bits.
//
// A pattern Ident matches only an Ident of the same name inside the
// candidate, and every candidate First or Find tries lies under root,
// so a pattern can hit under root only when Sig(root) holds every bit
// of Sig(pattern) (see MayMatch). Computing both once lets a caller
// that tries many patterns against many roots skip most pairs with
// one AND.
func Sig(n ast.Node) uint64 {
	var sig uint64
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok {
			sig |= nameBit(id.Name)
		}
		return true
	})
	return sig
}

// MayMatch reports whether a root with signature root can contain a
// match of a pattern with signature pat. A false answer is exact: no
// environment makes First hit.
func MayMatch(root, pat uint64) bool { return pat&^root == 0 }

// nameBit is the signature bit of an identifier: the top six bits of
// the name's 64-bit FNV-1a hash, which mix every byte of the name.
func nameBit(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return 1 << (h >> 58)
}
