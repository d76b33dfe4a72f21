package parser

import (
	"strconv"

	"flashmc/internal/cc/ast"
	"flashmc/internal/cc/token"
	"flashmc/internal/cc/types"
)

// expr parses a full expression including the comma operator.
func (p *Parser) expr() ast.Expr {
	e := p.assignExpr()
	for p.at(token.Comma) {
		pos := p.next().Pos
		rhs := p.assignExpr()
		b := &ast.Binary{Op: token.Comma, X: e, Y: rhs}
		b.P = pos
		e = b
	}
	return e
}

// assignExpr parses assignment expressions (right associative).
func (p *Parser) assignExpr() ast.Expr {
	lhs := p.condExpr()
	if p.kind().IsAssign() {
		op := p.next()
		rhs := p.assignExpr()
		a := &ast.Assign{Op: op.Kind, LHS: lhs, RHS: rhs}
		a.P = op.Pos
		return a
	}
	return lhs
}

// condExpr parses ternary conditionals.
func (p *Parser) condExpr() ast.Expr {
	c := p.binaryExpr(1)
	if p.at(token.Question) {
		pos := p.next().Pos
		then := p.expr()
		p.expect(token.Colon)
		els := p.condExpr()
		e := &ast.Cond{C: c, Then: then, Else: els}
		e.P = pos
		return e
	}
	return c
}

// binary operator precedence, C levels 1 (||) .. 10 (* / %).
func precOf(k token.Kind) int {
	switch k {
	case token.LogicalOr:
		return 1
	case token.LogicalAnd:
		return 2
	case token.BitOr:
		return 3
	case token.BitXor:
		return 4
	case token.BitAnd:
		return 5
	case token.Eq, token.NotEq:
		return 6
	case token.Less, token.Greater, token.LessEq, token.GreaterEq:
		return 7
	case token.Shl, token.Shr:
		return 8
	case token.Add, token.Sub:
		return 9
	case token.Star, token.Div, token.Mod:
		return 10
	}
	return 0
}

// binaryExpr implements precedence climbing above minPrec.
func (p *Parser) binaryExpr(minPrec int) ast.Expr {
	lhs := p.unaryExpr()
	for {
		prec := precOf(p.kind())
		if prec < minPrec {
			return lhs
		}
		op := p.next()
		rhs := p.binaryExpr(prec + 1)
		b := &ast.Binary{Op: op.Kind, X: lhs, Y: rhs}
		b.P = op.Pos
		lhs = b
	}
}

// unaryExpr parses prefix operators, casts and sizeof.
func (p *Parser) unaryExpr() ast.Expr {
	pos := p.cur().Pos
	switch p.kind() {
	case token.Not, token.Tilde, token.Sub, token.Add, token.Star, token.BitAnd:
		op := p.next()
		x := p.unaryExpr()
		u := &ast.Unary{Op: op.Kind, X: x}
		u.P = pos
		return u
	case token.Inc, token.Dec:
		op := p.next()
		x := p.unaryExpr()
		u := &ast.Unary{Op: op.Kind, X: x}
		u.P = pos
		return u
	case token.KwSizeof:
		p.next()
		if p.at(token.LParen) && p.isTypeName(1) {
			p.next()
			t := p.typeName()
			p.expect(token.RParen)
			e := &ast.SizeofType{Of: t}
			e.P = pos
			return e
		}
		x := p.unaryExpr()
		e := &ast.SizeofExpr{X: x}
		e.P = pos
		return e
	case token.LParen:
		// Cast if a type name follows.
		if p.isTypeName(1) {
			p.next()
			t := p.typeName()
			p.expect(token.RParen)
			x := p.unaryExpr()
			c := &ast.Cast{To: t, X: x}
			c.P = pos
			return c
		}
		return p.postfixExpr()
	default:
		return p.postfixExpr()
	}
}

// typeName parses an abstract type name (in casts and sizeof): decl
// specifiers plus pointer/array derivations without a declared name.
func (p *Parser) typeName() types.Type {
	_, _, base, _ := p.declSpecifiers()
	if base == nil {
		p.errorf(p.cur().Pos, "expected type name")
		return types.IntType
	}
	t := base
	for p.accept(token.Star) {
		for p.accept(token.KwConst) || p.accept(token.KwVolatile) {
		}
		t = &types.Pointer{Elem: t}
	}
	for p.at(token.LBracket) {
		p.next()
		ln := int64(-1)
		if !p.at(token.RBracket) {
			e := p.condExpr()
			if v, ok := ConstValue(e, p.enumConst); ok {
				ln = v
			}
		}
		p.expect(token.RBracket)
		t = &types.Array{Elem: t, Len: ln}
	}
	return t
}

// postfixExpr parses primary expressions followed by postfix
// operators: calls, indexing, member access, post-inc/dec.
func (p *Parser) postfixExpr() ast.Expr {
	e := p.primaryExpr()
	for {
		pos := p.cur().Pos
		switch p.kind() {
		case token.LParen:
			p.next()
			c := &ast.Call{Fun: e}
			c.P = e.Pos()
			for !p.at(token.RParen) && !p.at(token.EOF) {
				c.Args = append(c.Args, p.assignExpr())
				if !p.accept(token.Comma) {
					break
				}
			}
			p.expect(token.RParen)
			e = c
		case token.LBracket:
			p.next()
			idx := p.expr()
			p.expect(token.RBracket)
			ix := &ast.Index{X: e, Idx: idx}
			ix.P = pos
			e = ix
		case token.Dot, token.Arrow:
			arrow := p.next().Kind == token.Arrow
			name := p.expect(token.Ident).Text
			m := &ast.Member{X: e, Name: name, Arrow: arrow}
			m.P = pos
			e = m
		case token.Inc, token.Dec:
			op := p.next()
			u := &ast.Unary{Op: op.Kind, X: e, Postfix: true}
			u.P = pos
			e = u
		default:
			return e
		}
	}
}

// primaryExpr parses identifiers, literals, and parenthesized
// expressions. Identifiers registered as wildcards (metal pattern
// compilation) become Wildcard nodes.
func (p *Parser) primaryExpr() ast.Expr {
	tk := p.cur()
	switch tk.Kind {
	case token.Ident:
		p.next()
		if c, ok := p.cfg.Wildcards[tk.Text]; ok {
			w := &ast.Wildcard{Name: tk.Text, Constraint: c}
			w.P = tk.Pos
			return w
		}
		id := &ast.Ident{Name: tk.Text}
		id.P = tk.Pos
		return id
	case token.IntLit:
		p.next()
		v, ok := parseIntText(tk.Text)
		if !ok {
			p.errorf(tk.Pos, "malformed integer literal %s", tk.Text)
		}
		l := &ast.IntLit{Text: tk.Text, Value: v}
		l.P = tk.Pos
		return l
	case token.FloatLit:
		p.next()
		v, _ := strconv.ParseFloat(trimFloatSuffix(tk.Text), 64)
		l := &ast.FloatLit{Text: tk.Text, Value: v}
		l.P = tk.Pos
		return l
	case token.CharLit:
		p.next()
		l := &ast.CharLit{Text: tk.Text, Value: parseCharText(tk.Text)}
		l.P = tk.Pos
		return l
	case token.StringLit:
		p.next()
		text, val := tk.Text, unquoteString(tk.Text)
		// Adjacent string literals concatenate.
		for p.at(token.StringLit) {
			nt := p.next()
			text += " " + nt.Text
			val += unquoteString(nt.Text)
		}
		l := &ast.StringLit{Text: text, Value: val}
		l.P = tk.Pos
		return l
	case token.LParen:
		p.next()
		inner := p.expr()
		p.expect(token.RParen)
		e := &ast.Paren{X: inner}
		e.P = tk.Pos
		return e
	default:
		p.errorf(tk.Pos, "expected expression, found %s", tk)
		p.next()
		id := &ast.Ident{Name: "<error>"}
		id.P = tk.Pos
		return id
	}
}

func trimFloatSuffix(s string) string {
	for len(s) > 0 {
		switch s[len(s)-1] {
		case 'f', 'F', 'l', 'L':
			s = s[:len(s)-1]
			continue
		}
		break
	}
	return s
}
