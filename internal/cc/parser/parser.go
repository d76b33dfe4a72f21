// Package parser builds ASTs for the protocol-C subset from token
// streams produced by the lexer (which in turn consumes preprocessed
// text from package cpp).
//
// The grammar covers the C used by FLASH protocol handlers: typedefs,
// struct/union/enum declarations, global and local variables with
// initializers (including brace lists), function prototypes and
// definitions, the full statement set (if/else, while, do, for,
// switch/case, goto/label, break/continue, return), and the complete
// expression grammar with C precedence. Omissions relative to ANSI C —
// bitfields, K&R parameter declarations, and declarators of
// function-pointer arrays — are diagnosed, not silently accepted.
//
// The parser is reused to compile metal patterns: Config.Wildcards
// maps identifier spellings to constraint names, and occurrences of
// those identifiers parse as ast.Wildcard nodes.
package parser

import (
	"fmt"
	"strconv"
	"strings"

	"flashmc/internal/cc/ast"
	"flashmc/internal/cc/lexer"
	"flashmc/internal/cc/token"
	"flashmc/internal/cc/types"
)

// Error is a parse error at a position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Config adjusts parser behaviour.
type Config struct {
	// Wildcards maps identifier spellings to wildcard constraints for
	// metal pattern compilation. Nil for ordinary parsing.
	Wildcards map[string]string
	// Typedefs pre-seeds typedef names (pattern fragments reference
	// protocol types without their declarations in scope).
	Typedefs map[string]types.Type
}

// Parser parses one token stream.
type Parser struct {
	toks []token.Token
	pos  int
	errs []error
	cfg  Config

	typedefs map[string]types.Type
	tags     map[string]types.Type // struct/union/enum tags

	// enumConsts records enumerator names and values discovered while
	// parsing; the checker uses them for constant evaluation.
	enumConsts map[string]int64
}

// New returns a parser over toks. File reads toks and nothing after
// it does: once File returns, Errors, Typedefs and EnumConsts stay
// valid and the caller may overwrite toks (core.Load lexes every
// translation unit into one reused buffer).
func New(toks []token.Token, cfg Config) *Parser {
	p := &Parser{
		toks:       toks,
		cfg:        cfg,
		typedefs:   make(map[string]types.Type),
		tags:       make(map[string]types.Type),
		enumConsts: make(map[string]int64),
	}
	for k, v := range cfg.Typedefs {
		p.typedefs[k] = v
	}
	return p
}

// ParseText preprocesses nothing; it lexes and parses source text
// directly (the text is assumed already preprocessed or free of
// directives other than line markers).
func ParseText(name, text string) (*ast.File, []error) {
	lx := lexer.New(name, text)
	toks := lx.All()
	p := New(toks, Config{})
	f := p.File(name)
	errs := append(lx.Errors(), p.Errors()...)
	return f, errs
}

// Errors returns accumulated parse errors.
func (p *Parser) Errors() []error { return p.errs }

// EnumConsts returns enumerator values discovered during parsing.
func (p *Parser) EnumConsts() map[string]int64 { return p.enumConsts }

// Typedefs returns the typedef table (including discovered ones), so a
// later parse (e.g. of pattern text) can share protocol type names.
func (p *Parser) Typedefs() map[string]types.Type { return p.typedefs }

func (p *Parser) errorf(pos token.Pos, format string, args ...any) {
	if len(p.errs) > 200 {
		return // avoid error floods on badly broken input
	}
	p.errs = append(p.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (p *Parser) cur() token.Token     { return p.toks[p.pos] }
func (p *Parser) kind() token.Kind     { return p.toks[p.pos].Kind }
func (p *Parser) at(k token.Kind) bool { return p.toks[p.pos].Kind == k }

func (p *Parser) peekKind(n int) token.Kind {
	if p.pos+n >= len(p.toks) {
		return token.EOF
	}
	return p.toks[p.pos+n].Kind
}

func (p *Parser) peekTok(n int) token.Token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+n]
}

func (p *Parser) next() token.Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *Parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(k token.Kind) token.Token {
	if p.at(k) {
		return p.next()
	}
	p.errorf(p.cur().Pos, "expected %s, found %s", k, p.cur())
	return token.Token{Kind: k, Pos: p.cur().Pos}
}

// sync skips tokens until a likely statement/declaration boundary.
func (p *Parser) sync() {
	depth := 0
	for !p.at(token.EOF) {
		switch p.kind() {
		case token.Semi:
			if depth == 0 {
				p.next()
				return
			}
		case token.LBrace:
			depth++
		case token.RBrace:
			if depth == 0 {
				return
			}
			depth--
		}
		p.next()
	}
}

// isTypeName reports whether the token at offset n begins a type.
func (p *Parser) isTypeName(n int) bool {
	t := p.peekTok(n)
	if t.Kind.IsTypeStart() {
		return true
	}
	if t.Kind == token.Ident {
		_, ok := p.typedefs[t.Text]
		return ok
	}
	return false
}

// File parses a whole translation unit.
func (p *Parser) File(name string) *ast.File {
	f := &ast.File{Name: name}
	for !p.at(token.EOF) {
		d := p.topDecl()
		if d != nil {
			f.Decls = append(f.Decls, d...)
		}
	}
	return f
}

// topDecl parses one top-level declaration, which may declare several
// variables (int a, b;) and therefore returns a slice.
func (p *Parser) topDecl() []ast.Decl {
	start := p.pos
	pos := p.cur().Pos
	storage, inline, base, isConst := p.declSpecifiers()
	if base == nil {
		p.errorf(pos, "expected declaration, found %s", p.cur())
		p.sync()
		if p.pos == start {
			p.next() // guarantee progress
		}
		return nil
	}
	// Bare tag declaration: "struct S { ... };" or "enum E {...};"
	if p.accept(token.Semi) {
		return []ast.Decl{&ast.TypeDecl{T: base}}
	}

	var out []ast.Decl
	for {
		dpos := p.cur().Pos
		name, t, params, variadic, isFunc := p.declarator(base)
		if name == "" {
			p.errorf(dpos, "expected declarator")
			p.sync()
			return out
		}
		if storage == ast.StorageTypedef {
			named := &types.Named{Name: name, Underlying: t}
			p.typedefs[name] = named
			out = append(out, &ast.TypeDecl{Name: name, T: named})
		} else if isFunc {
			fd := &ast.FuncDecl{Name: name, Ret: t, Params: params,
				Variadic: variadic, Storage: storage, Inline: inline}
			fd.P = dpos
			if p.at(token.LBrace) {
				fd.Body = p.block()
				fd.EndPos = p.prevPos()
				out = append(out, fd)
				return out // no comma after function body
			}
			out = append(out, fd)
		} else {
			vd := &ast.VarDecl{Name: name, T: t, Storage: storage, Const: isConst}
			vd.P = dpos
			if p.accept(token.Assign) {
				vd.Init = p.initializer()
			}
			out = append(out, vd)
		}
		if !p.accept(token.Comma) {
			break
		}
	}
	p.expect(token.Semi)
	return out
}

func (p *Parser) prevPos() token.Pos {
	if p.pos > 0 {
		return p.toks[p.pos-1].Pos
	}
	return token.Pos{}
}

// declSpecifiers parses storage class + type specifiers. Returns a nil
// type if no specifier is present.
func (p *Parser) declSpecifiers() (storage ast.Storage, inline bool, t types.Type, isConst bool) {
	var (
		sawUnsigned, sawSigned bool
		longCount              int
		sawShort               bool
		baseKind               = -1 // types.BasicKind, -1 unset
		result                 types.Type
	)
	setBasic := func(k types.BasicKind) {
		if baseKind != -1 || result != nil {
			p.errorf(p.cur().Pos, "duplicate type specifier")
		}
		baseKind = int(k)
	}
loop:
	for {
		switch p.kind() {
		case token.KwTypedef:
			storage = ast.StorageTypedef
			p.next()
		case token.KwExtern:
			storage = ast.StorageExtern
			p.next()
		case token.KwStatic:
			storage = ast.StorageStatic
			p.next()
		case token.KwRegister:
			storage = ast.StorageRegister
			p.next()
		case token.KwAuto:
			storage = ast.StorageAuto
			p.next()
		case token.KwInline:
			inline = true
			p.next()
		case token.KwConst:
			isConst = true
			p.next()
		case token.KwVolatile:
			p.next()
		case token.KwVoid:
			setBasic(types.Void)
			p.next()
		case token.KwChar:
			setBasic(types.Char)
			p.next()
		case token.KwShort:
			sawShort = true
			p.next()
		case token.KwInt:
			if baseKind == -1 {
				baseKind = int(types.Int)
			}
			p.next()
		case token.KwLong:
			longCount++
			p.next()
		case token.KwFloat:
			setBasic(types.Float)
			p.next()
		case token.KwDouble:
			setBasic(types.Double)
			p.next()
		case token.KwSigned:
			sawSigned = true
			p.next()
		case token.KwUnsigned:
			sawUnsigned = true
			p.next()
		case token.KwStruct, token.KwUnion:
			result = p.structOrUnion()
		case token.KwEnum:
			result = p.enum()
		case token.Ident:
			if result == nil && baseKind == -1 && !sawUnsigned && !sawSigned &&
				longCount == 0 && !sawShort {
				if td, ok := p.typedefs[p.cur().Text]; ok {
					result = td
					p.next()
					continue
				}
			}
			break loop
		default:
			break loop
		}
	}
	_ = sawSigned
	if result != nil {
		return storage, inline, result, isConst
	}
	if baseKind == -1 && !sawUnsigned && longCount == 0 && !sawShort {
		if storage != ast.StorageNone || isConst {
			// "extern x;" style implicit int — accepted leniently.
			return storage, inline, types.IntType, isConst
		}
		return storage, inline, nil, isConst
	}
	// Combine modifiers into a basic type.
	k := types.Int
	if baseKind != -1 {
		k = types.BasicKind(baseKind)
	}
	switch {
	case sawShort:
		k = types.Short
		if sawUnsigned {
			k = types.UShort
		}
	case longCount >= 2:
		k = types.LongLong
		if sawUnsigned {
			k = types.ULongLong
		}
	case longCount == 1 && k == types.Double:
		k = types.LongDouble
	case longCount == 1:
		k = types.Long
		if sawUnsigned {
			k = types.ULong
		}
	case sawUnsigned:
		switch k {
		case types.Char:
			k = types.UChar
		case types.Int:
			k = types.UInt
		default:
			p.errorf(p.cur().Pos, "cannot apply unsigned to %v", k)
		}
	}
	return storage, inline, basicFor(k), isConst
}

func basicFor(k types.BasicKind) *types.Basic {
	switch k {
	case types.Void:
		return types.VoidType
	case types.Char:
		return types.CharType
	case types.UChar:
		return types.UCharType
	case types.Short:
		return types.ShortType
	case types.UShort:
		return types.UShortType
	case types.Int:
		return types.IntType
	case types.UInt:
		return types.UIntType
	case types.Long:
		return types.LongType
	case types.ULong:
		return types.ULongType
	case types.LongLong:
		return types.LongLongType
	case types.ULongLong:
		return types.ULongLongType
	case types.Float:
		return types.FloatType
	case types.Double:
		return types.DoubleType
	case types.LongDouble:
		return types.LongDoubleType
	}
	return types.IntType
}

// structOrUnion parses struct/union specifiers, registering tags.
func (p *Parser) structOrUnion() types.Type {
	isUnion := p.kind() == token.KwUnion
	p.next()
	tag := ""
	if p.at(token.Ident) {
		tag = p.next().Text
	}
	key := "s " + tag
	if isUnion {
		key = "u " + tag
	}
	var st *types.Struct
	if tag != "" {
		if existing, ok := p.tags[key]; ok {
			st = existing.(*types.Struct)
		}
	}
	if st == nil {
		st = &types.Struct{Tag: tag, Union: isUnion}
		if tag != "" {
			p.tags[key] = st
		}
	}
	if !p.at(token.LBrace) {
		return st
	}
	p.next()
	if st.Complete {
		// Redefinition: make a fresh type to keep going.
		st = &types.Struct{Tag: tag, Union: isUnion}
		if tag != "" {
			p.tags[key] = st
		}
	}
	for !p.at(token.RBrace) && !p.at(token.EOF) {
		_, _, base, _ := p.declSpecifiers()
		if base == nil {
			p.errorf(p.cur().Pos, "expected field type in %s", st)
			p.sync()
			continue
		}
		for {
			name, t, _, _, isFunc := p.declarator(base)
			if isFunc {
				p.errorf(p.cur().Pos, "function field not supported")
			}
			if p.accept(token.Colon) { // bitfield: parse and flag
				p.errorf(p.cur().Pos, "bitfields are not in the protocol-C subset")
				p.condExpr()
			}
			st.Fields = append(st.Fields, types.Field{Name: name, T: t})
			if !p.accept(token.Comma) {
				break
			}
		}
		p.expect(token.Semi)
	}
	p.expect(token.RBrace)
	st.Complete = true
	return st
}

// enum parses enum specifiers, recording enumerator constants.
func (p *Parser) enum() types.Type {
	p.next() // enum
	tag := ""
	if p.at(token.Ident) {
		tag = p.next().Text
	}
	key := "e " + tag
	var et *types.Enum
	if tag != "" {
		if existing, ok := p.tags[key]; ok {
			et = existing.(*types.Enum)
		}
	}
	if et == nil {
		et = &types.Enum{Tag: tag}
		if tag != "" {
			p.tags[key] = et
		}
	}
	if !p.at(token.LBrace) {
		return et
	}
	p.next()
	val := int64(0)
	for !p.at(token.RBrace) && !p.at(token.EOF) {
		name := p.expect(token.Ident).Text
		if p.accept(token.Assign) {
			e := p.condExpr()
			if v, ok := p.constEval(e); ok {
				val = v
			} else {
				p.errorf(p.prevPos(), "enumerator value must be constant")
			}
		}
		if name != "" {
			et.Members = append(et.Members, name)
			p.enumConsts[name] = val
		}
		val++
		if !p.accept(token.Comma) {
			break
		}
	}
	p.expect(token.RBrace)
	return et
}

// declarator parses pointer stars, the name, and array/function
// suffixes, producing the declared type. For function declarators it
// returns the parameter list.
func (p *Parser) declarator(base types.Type) (name string, t types.Type, params []ast.Param, variadic bool, isFunc bool) {
	t = base
	for p.accept(token.Star) {
		// const/volatile after * bind to the pointer; skip.
		for p.accept(token.KwConst) || p.accept(token.KwVolatile) {
		}
		t = &types.Pointer{Elem: t}
	}
	if p.at(token.Ident) {
		tk := p.next()
		name = tk.Text
	} else if p.at(token.LParen) && p.peekKind(1) == token.Star {
		p.errorf(p.cur().Pos, "function-pointer declarators are not in the protocol-C subset")
		p.sync()
		return "", t, nil, false, false
	}
	// suffixes
	for {
		switch {
		case p.at(token.LBracket):
			p.next()
			ln := int64(-1)
			if !p.at(token.RBracket) {
				e := p.condExpr()
				if v, ok := p.constEval(e); ok {
					ln = v
				} else {
					// Array sized by extern const "variable-ized macro
					// constants" (paper §11); treat as unknown length.
					ln = -1
				}
			}
			p.expect(token.RBracket)
			t = &types.Array{Elem: t, Len: ln}
		case p.at(token.LParen):
			p.next()
			isFunc = true
			params, variadic = p.paramList()
			p.expect(token.RParen)
		default:
			return name, t, params, variadic, isFunc
		}
	}
}

// paramList parses function parameters up to (but not including) ')'.
func (p *Parser) paramList() (params []ast.Param, variadic bool) {
	if p.at(token.RParen) {
		return nil, false
	}
	// (void)
	if p.at(token.KwVoid) && p.peekKind(1) == token.RParen {
		p.next()
		return nil, false
	}
	for {
		if p.accept(token.Ellipsis) {
			variadic = true
			break
		}
		pos := p.cur().Pos
		_, _, base, _ := p.declSpecifiers()
		if base == nil {
			// K&R style or error; accept bare identifiers leniently.
			if p.at(token.Ident) {
				params = append(params, ast.Param{Name: p.next().Text, T: types.IntType, P: pos})
			} else {
				p.errorf(pos, "expected parameter")
				break
			}
		} else {
			name, t, _, _, _ := p.declarator(base)
			// Arrays decay to pointers in parameters.
			if arr, ok := t.(*types.Array); ok {
				t = &types.Pointer{Elem: arr.Elem}
			}
			params = append(params, ast.Param{Name: name, T: t, P: pos})
		}
		if !p.accept(token.Comma) {
			break
		}
	}
	return params, variadic
}

// initializer parses an initializer: assignment expression or brace
// list (possibly nested).
func (p *Parser) initializer() ast.Expr {
	if p.at(token.LBrace) {
		pos := p.next().Pos
		il := &ast.InitList{}
		il.P = pos
		for !p.at(token.RBrace) && !p.at(token.EOF) {
			il.Elems = append(il.Elems, p.initializer())
			if !p.accept(token.Comma) {
				break
			}
		}
		p.expect(token.RBrace)
		return il
	}
	return p.assignExpr()
}

// constEval evaluates constant integer expressions (literals, unary
// +/-/~/!, binary arithmetic, enum constants, parens).
func (p *Parser) constEval(e ast.Expr) (int64, bool) {
	switch x := e.(type) {
	case *ast.IntLit:
		return x.Value, true
	case *ast.CharLit:
		return x.Value, true
	case *ast.Ident:
		v, ok := p.enumConsts[x.Name]
		return v, ok
	case *ast.Paren:
		return p.constEval(x.X)
	case *ast.Unary:
		v, ok := p.constEval(x.X)
		if !ok {
			return 0, false
		}
		switch x.Op {
		case token.Sub:
			return -v, true
		case token.Add:
			return v, true
		case token.Tilde:
			return ^v, true
		case token.Not:
			if v == 0 {
				return 1, true
			}
			return 0, true
		}
		return 0, false
	case *ast.Binary:
		a, ok1 := p.constEval(x.X)
		b, ok2 := p.constEval(x.Y)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch x.Op {
		case token.Add:
			return a + b, true
		case token.Sub:
			return a - b, true
		case token.Star:
			return a * b, true
		case token.Div:
			if b == 0 {
				return 0, false
			}
			return a / b, true
		case token.Mod:
			if b == 0 {
				return 0, false
			}
			return a % b, true
		case token.Shl:
			return a << (uint64(b) & 63), true
		case token.Shr:
			return a >> (uint64(b) & 63), true
		case token.BitOr:
			return a | b, true
		case token.BitAnd:
			return a & b, true
		case token.BitXor:
			return a ^ b, true
		}
		return 0, false
	}
	return 0, false
}

// parseIntText parses a C integer literal spelling.
func parseIntText(text string) int64 {
	s := strings.TrimRight(text, "uUlL")
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		u, err2 := strconv.ParseUint(s, 0, 64)
		if err2 != nil {
			return 0
		}
		return int64(u)
	}
	return v
}

// parseCharText evaluates a character literal spelling.
func parseCharText(text string) int64 {
	if len(text) < 3 {
		return 0
	}
	body := text[1 : len(text)-1]
	if body[0] != '\\' {
		return int64(body[0])
	}
	if len(body) < 2 {
		return 0
	}
	switch body[1] {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case '0':
		if len(body) == 2 {
			return 0
		}
		v, _ := strconv.ParseInt(body[1:], 8, 64)
		return v
	case 'x':
		v, _ := strconv.ParseInt(body[2:], 16, 64)
		return v
	case '\\', '\'', '"', '?':
		return int64(body[1])
	case 'a':
		return 7
	case 'b':
		return 8
	case 'f':
		return 12
	case 'v':
		return 11
	}
	if body[1] >= '0' && body[1] <= '7' {
		v, _ := strconv.ParseInt(body[1:], 8, 64)
		return v
	}
	return int64(body[1])
}

// unquoteString decodes a C string literal's contents.
func unquoteString(text string) string {
	if len(text) < 2 {
		return ""
	}
	body := text[1 : len(text)-1]
	if !strings.ContainsRune(body, '\\') {
		return body
	}
	var b strings.Builder
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c != '\\' || i+1 >= len(body) {
			b.WriteByte(c)
			continue
		}
		i++
		switch body[i] {
		case 'n':
			b.WriteByte('\n')
		case 't':
			b.WriteByte('\t')
		case 'r':
			b.WriteByte('\r')
		case '0':
			b.WriteByte(0)
		case '\\', '"', '\'':
			b.WriteByte(body[i])
		default:
			b.WriteByte('\\')
			b.WriteByte(body[i])
		}
	}
	return b.String()
}
