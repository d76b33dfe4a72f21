package sched

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"sort"

	"flashmc/internal/cc/ast"
	"flashmc/internal/cc/types"
	"flashmc/internal/core"
)

// fnFingerprintVersion prefixes every function fingerprint's hash
// input. Bump it (and FrontendVersion) whenever the encoding below
// changes, so depot keys addressed by the old encoding miss once and
// are never misread.
const fnFingerprintVersion = "fnfp/v2"

// FnFingerprint content-addresses one function definition for the
// depot. It hashes the parsed AST — every node's kind, position, leaf
// payload (identifier names, literal texts, operators, declared and
// computed types) — so it covers exactly what the checkers can
// observe:
//
//   - any textual edit to the function changes tokens or positions;
//   - a macro change in a shared header changes the expansion, hence
//     the AST;
//   - a line shift from an edit earlier in the file changes node
//     positions, which matter because reports carry them;
//   - a type change in another translation unit (protocol builds
//     share globals) changes the computed expression types.
//
// Functions elsewhere in the file that the edit does not move are
// untouched, which is what makes per-function invalidation precise.
func FnFingerprint(fn *ast.FuncDecl) string {
	return newFnHasher().sum(fn)
}

// Fingerprints returns every function's fingerprint, parallel to
// p.Fns. They are computed on the first call for a program and
// memoized on it, so later calls (from Check, triage or the caller)
// are free; the returned slice is shared and must not be modified.
func Fingerprints(p *core.Program) []string {
	fps, _ := p.MemoFingerprints(computeFingerprints)
	return fps
}

// ProgramFingerprintOf returns p's memoized whole-program fingerprint,
// ProgramFingerprint(p, Fingerprints(p)).
func ProgramFingerprintOf(p *core.Program) string {
	_, progFP := p.MemoFingerprints(computeFingerprints)
	return progFP
}

func computeFingerprints(p *core.Program) ([]string, string) {
	h := newFnHasher()
	fps := make([]string, len(p.Fns))
	for i, fn := range p.Fns {
		fps[i] = h.sum(fn)
	}
	return fps, ProgramFingerprint(p, fps)
}

// ProgramFingerprint content-addresses a whole loaded program: the
// ordered set of function fingerprints. Whole-program passes (exec
// restrictions, no-float, and the linked lane program) key on it.
// fps must be parallel to p.Fns (see Fingerprints).
func ProgramFingerprint(p *core.Program, fps []string) string {
	var b []byte
	for i, fn := range p.Fns {
		b = append(b, fn.Name...)
		b = append(b, 0)
		b = append(b, fps[i]...)
		b = append(b, 0)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Node kind tags. Each AST node type has exactly one (see nodeKind);
// kindFile is not a node but the record announcing a new file name.
const (
	kindFile byte = iota + 1
	kindIdent
	kindIntLit
	kindFloatLit
	kindCharLit
	kindStringLit
	kindParen
	kindUnary
	kindBinary
	kindAssign
	kindCond
	kindCall
	kindIndex
	kindMember
	kindCast
	kindSizeofExpr
	kindSizeofType
	kindInitList
	kindWildcard
	kindExprStmt
	kindDeclStmt
	kindBlock
	kindIf
	kindWhile
	kindDoWhile
	kindFor
	kindSwitch
	kindCase
	kindBreak
	kindContinue
	kindReturn
	kindGoto
	kindLabeled
	kindEmpty
	kindVarDecl
	kindFuncDecl
	kindTypeDecl
	kindFileNode
)

// fnHasherFlush is the buffered byte count that triggers a write
// into the hash.
const fnHasherFlush = 4 << 10

// fnHasher encodes ASTs into one reusable buffer in front of one
// reused sha256. The encoding is binary and self-delimiting, written
// in ast.Inspect's pre-order:
//
//	[kindFile len file]  only when the file differs from the previous node's
//	kind payload line col [type]  the type only for expressions
//
// Strings carry a uvarint length prefix, so no two different field
// sequences concatenate to the same bytes; variable-arity nodes carry
// their child count and optional children a presence flag. Type
// strings are interned per hasher: each distinct types.Type is
// rendered once.
type fnHasher struct {
	h       hash.Hash
	buf     []byte
	digest  []byte
	hex     [2 * sha256.Size]byte
	file    string
	newFile bool
	types   map[types.Type]string
	visit   func(ast.Node) bool
}

func newFnHasher() *fnHasher {
	f := &fnHasher{
		h:      sha256.New(),
		buf:    make([]byte, 0, fnHasherFlush+256),
		digest: make([]byte, 0, sha256.Size),
		types:  map[types.Type]string{},
	}
	f.visit = f.node
	return f
}

// sum returns fn's fingerprint. Each function is encoded from a clean
// state, so its fingerprint never depends on which functions the
// hasher saw before.
func (f *fnHasher) sum(fn *ast.FuncDecl) string {
	f.h.Reset()
	f.buf = append(f.buf[:0], fnFingerprintVersion...)
	f.newFile = true
	ast.Inspect(fn, f.visit)
	f.h.Write(f.buf)
	f.digest = f.h.Sum(f.digest[:0])
	hex.Encode(f.hex[:], f.digest)
	return string(f.hex[:])
}

func (f *fnHasher) node(n ast.Node) bool {
	p := n.Pos()
	if f.newFile || p.File != f.file {
		f.buf = append(f.buf, kindFile)
		f.str(p.File)
		f.file, f.newFile = p.File, false
	}
	f.buf = append(f.buf, nodeKind(n))
	switch x := n.(type) {
	case *ast.Ident:
		f.str(x.Name)
	case *ast.IntLit:
		f.str(x.Text)
	case *ast.FloatLit:
		f.str(x.Text)
	case *ast.CharLit:
		f.str(x.Text)
	case *ast.StringLit:
		f.str(x.Text)
	case *ast.Unary:
		f.varint(int(x.Op))
		f.flag(x.Postfix)
	case *ast.Binary:
		f.varint(int(x.Op))
	case *ast.Assign:
		f.varint(int(x.Op))
	case *ast.Call:
		f.varint(len(x.Args))
	case *ast.Member:
		f.str(x.Name)
		f.flag(x.Arrow)
	case *ast.Cast:
		f.typ(x.To)
	case *ast.SizeofType:
		f.typ(x.Of)
	case *ast.InitList:
		f.varint(len(x.Elems))
	case *ast.Block:
		f.varint(len(x.Stmts))
	case *ast.If:
		f.flag(x.Else != nil)
	case *ast.For:
		f.flag(x.Init != nil)
		f.flag(x.Cond != nil)
		f.flag(x.Post != nil)
	case *ast.Case:
		f.flag(x.Value != nil)
	case *ast.Return:
		f.flag(x.X != nil)
	case *ast.Goto:
		f.str(x.Label)
	case *ast.Labeled:
		f.str(x.Label)
	case *ast.VarDecl:
		f.str(x.Name)
		f.varint(int(x.Storage))
		f.flag(x.Const)
		f.typ(x.T)
		f.flag(x.Init != nil)
	case *ast.FuncDecl:
		f.str(x.Name)
		f.flag(x.Variadic)
		f.varint(int(x.Storage))
		f.flag(x.Inline)
		f.varint(x.EndPos.Line)
		f.typ(x.Ret)
		f.varint(len(x.Params))
		for _, prm := range x.Params {
			f.str(prm.Name)
			f.typ(prm.T)
		}
		f.flag(x.Body != nil)
	}
	f.varint(p.Line)
	f.varint(p.Col)
	if e, ok := n.(ast.Expr); ok {
		f.typ(e.Type())
	}
	if len(f.buf) >= fnHasherFlush {
		f.h.Write(f.buf)
		f.buf = f.buf[:0]
	}
	return true
}

func (f *fnHasher) varint(v int) { f.buf = binary.AppendVarint(f.buf, int64(v)) }

func (f *fnHasher) flag(b bool) {
	if b {
		f.buf = append(f.buf, 1)
	} else {
		f.buf = append(f.buf, 0)
	}
}

func (f *fnHasher) str(s string) {
	f.buf = binary.AppendUvarint(f.buf, uint64(len(s)))
	f.buf = append(f.buf, s...)
}

// typ writes a presence flag, then the type's interned rendering.
func (f *fnHasher) typ(t types.Type) {
	if t == nil {
		f.buf = append(f.buf, 0)
		return
	}
	s, ok := f.types[t]
	if !ok {
		s = t.String()
		f.types[t] = s
	}
	f.buf = append(f.buf, 1)
	f.str(s)
}

// nodeKind is the one exhaustive map from AST node type to kind tag.
// An unknown type panics: a new node type must get a tag (and a
// fnFingerprintVersion bump) before it can be fingerprinted.
func nodeKind(n ast.Node) byte {
	switch n.(type) {
	case *ast.Ident:
		return kindIdent
	case *ast.IntLit:
		return kindIntLit
	case *ast.FloatLit:
		return kindFloatLit
	case *ast.CharLit:
		return kindCharLit
	case *ast.StringLit:
		return kindStringLit
	case *ast.Paren:
		return kindParen
	case *ast.Unary:
		return kindUnary
	case *ast.Binary:
		return kindBinary
	case *ast.Assign:
		return kindAssign
	case *ast.Cond:
		return kindCond
	case *ast.Call:
		return kindCall
	case *ast.Index:
		return kindIndex
	case *ast.Member:
		return kindMember
	case *ast.Cast:
		return kindCast
	case *ast.SizeofExpr:
		return kindSizeofExpr
	case *ast.SizeofType:
		return kindSizeofType
	case *ast.InitList:
		return kindInitList
	case *ast.Wildcard:
		return kindWildcard
	case *ast.ExprStmt:
		return kindExprStmt
	case *ast.DeclStmt:
		return kindDeclStmt
	case *ast.Block:
		return kindBlock
	case *ast.If:
		return kindIf
	case *ast.While:
		return kindWhile
	case *ast.DoWhile:
		return kindDoWhile
	case *ast.For:
		return kindFor
	case *ast.Switch:
		return kindSwitch
	case *ast.Case:
		return kindCase
	case *ast.Break:
		return kindBreak
	case *ast.Continue:
		return kindContinue
	case *ast.Return:
		return kindReturn
	case *ast.Goto:
		return kindGoto
	case *ast.Labeled:
		return kindLabeled
	case *ast.Empty:
		return kindEmpty
	case *ast.VarDecl:
		return kindVarDecl
	case *ast.FuncDecl:
		return kindFuncDecl
	case *ast.TypeDecl:
		return kindTypeDecl
	case *ast.File:
		return kindFileNode
	default:
		panic(fmt.Sprintf("sched: no fingerprint kind for AST node %T", n))
	}
}

// reachFingerprint content-addresses the inputs of one handler's
// inter-procedural lane pass: the fingerprints of every function its
// call graph can reach (itself included). Editing any function in
// that cone changes the address; editing anything outside it does
// not — this is the call-graph-precise invalidation rule.
func reachFingerprint(handler string, reach map[string]bool, fpByFn map[string]string) string {
	fns := make([]string, 0, len(reach))
	for fn := range reach {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	h := sha256.New()
	io.WriteString(h, handler)
	io.WriteString(h, "\x00")
	for _, fn := range fns {
		io.WriteString(h, fn)
		io.WriteString(h, "\x00")
		io.WriteString(h, fpByFn[fn])
		io.WriteString(h, "\x00")
	}
	return hex.EncodeToString(h.Sum(nil))
}
