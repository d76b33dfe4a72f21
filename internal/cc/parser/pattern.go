package parser

import (
	"errors"

	"flashmc/internal/cc/ast"
	"flashmc/internal/cc/lexer"
	"flashmc/internal/cc/token"
	"flashmc/internal/cc/types"
)

// PatternContext supplies ambient names for compiling metal patterns:
// the wildcard variables declared by the checker and any typedef names
// the pattern text mentions.
type PatternContext struct {
	// Wildcards maps wildcard variable names to constraints
	// ("scalar", "unsigned", "", ...).
	Wildcards map[string]string
	// Typedefs names protocol types used in casts within patterns.
	Typedefs map[string]types.Type
}

// ParseStmtPattern compiles metal pattern text (one statement, with or
// without trailing semicolon, or a bare expression) into a pattern
// tree. Identifiers named in ctx.Wildcards become ast.Wildcard nodes.
func ParseStmtPattern(text string, ctx PatternContext) (ast.Stmt, error) {
	lx := lexer.New("<pattern>", text)
	toks := lx.All()
	if len(lx.Errors()) > 0 {
		return nil, lx.Errors()[0]
	}
	// Allow omitted trailing semicolon by appending one when the last
	// real token isn't ; or }.
	if n := len(toks); n >= 2 {
		last := toks[n-2]
		if last.Kind != token.Semi && last.Kind != token.RBrace {
			semi := token.Token{Kind: token.Semi, Pos: last.Pos, Text: ";"}
			toks = append(toks[:n-1], semi, toks[n-1])
		}
	}
	p := New(toks, Config{Wildcards: ctx.Wildcards, Typedefs: ctx.Typedefs})
	s := p.stmt()
	if len(p.Errors()) > 0 {
		return nil, p.Errors()[0]
	}
	if !p.at(token.EOF) {
		return nil, errors.New("pattern has trailing tokens after statement")
	}
	return s, nil
}

// ParseExprPattern compiles metal pattern text as an expression. It is
// also the C grammar's one entry point for a lone expression: cpp
// parses #if expressions with it. Every error it returns carries the
// position in text.
func ParseExprPattern(text string, ctx PatternContext) (ast.Expr, error) {
	lx := lexer.New("<pattern>", text)
	toks := lx.All()
	if len(lx.Errors()) > 0 {
		return nil, lx.Errors()[0]
	}
	p := New(toks, Config{Wildcards: ctx.Wildcards, Typedefs: ctx.Typedefs})
	e := p.expr()
	if !p.at(token.EOF) {
		p.errorf(p.cur().Pos, "unexpected %s after expression", p.cur())
	}
	if len(p.Errors()) > 0 {
		return nil, p.Errors()[0]
	}
	return e, nil
}
