package parser

import (
	"strings"
	"testing"

	"flashmc/internal/cc/ast"
	"flashmc/internal/cc/lexer"
	"flashmc/internal/cc/types"
)

func TestPointerToPointer(t *testing.T) {
	f := parse(t, `unsigned **pp;`)
	pt := f.Decls[0].(*ast.VarDecl).T
	p1, ok := pt.(*types.Pointer)
	if !ok {
		t.Fatalf("outer %v", pt)
	}
	if _, ok := p1.Elem.(*types.Pointer); !ok {
		t.Fatalf("inner %v", p1.Elem)
	}
}

func TestConstPlacements(t *testing.T) {
	f := parse(t, `
const unsigned a = 1;
unsigned const b = 2;
const char *s;
char * const p;
`)
	if !f.Decls[0].(*ast.VarDecl).Const || !f.Decls[1].(*ast.VarDecl).Const {
		t.Error("const qualifier lost")
	}
	// Pointer-level const is accepted (and discarded) without error.
	if len(f.Decls) != 4 {
		t.Errorf("decls %d", len(f.Decls))
	}
}

func TestAnonymousStructVar(t *testing.T) {
	f := parse(t, `struct { unsigned a; unsigned b; } pair;`)
	vd := f.Decls[0].(*ast.VarDecl)
	st := types.Unwrap(vd.T).(*types.Struct)
	if len(st.Fields) != 2 || st.Tag != "" {
		t.Errorf("struct %v", st)
	}
}

func TestForwardStructPointer(t *testing.T) {
	f := parse(t, `
struct node;
struct node *head;
struct node { struct node *next; unsigned v; };
void g(void) { head->next->v = 1; }
`)
	// The forward tag and the completed definition must be the same
	// type object so member access through head resolves.
	head := f.Decls[1].(*ast.VarDecl)
	st := types.Unwrap(head.T).(*types.Pointer).Elem.(*types.Struct)
	if !st.Complete || st.Find("next") == nil {
		t.Errorf("forward tag not unified: %v complete=%v", st, st.Complete)
	}
}

func TestEnumNegativeAndExpr(t *testing.T) {
	f, errs := ParseText("t.c", `enum e { A = -1, B = 1 << 4, C };`)
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	p := New(nil, Config{})
	_ = p
	f2, _ := ParseText("t2.c", `enum e { A = -1, B = 1 << 4, C }; int arr[C];`)
	arr := f2.Decls[1].(*ast.VarDecl).T.(*types.Array)
	if arr.Len != 17 {
		t.Errorf("C = %d want 17", arr.Len)
	}
	_ = f
}

// Enumerator values fold through ConstValue, which knows comparisons,
// ?: and the lazy logical operators.
func TestEnumFoldsComparisonsAndTernary(t *testing.T) {
	lx := lexer.New("t.c", `enum { A = 1 < 2, B = A ? 5 : 6, C = 0 && 1/0, D = 1 || 1/0 };`)
	p := New(lx.All(), Config{})
	p.File("t.c")
	if len(p.Errors()) != 0 {
		t.Fatal(p.Errors())
	}
	want := map[string]int64{"A": 1, "B": 5, "C": 0, "D": 1}
	for name, v := range want {
		if got := p.EnumConsts()[name]; got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
}

func TestConstValueRejectsNonConstants(t *testing.T) {
	for _, src := range []string{"1/0", "1%0", "x = 1", "f(1)", "1, 2", "(int)1", "sizeof(int)", "x", "1 ? x : 2"} {
		e, err := ParseExprPattern(src, PatternContext{})
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if v, ok := ConstValue(e, nil); ok {
			t.Errorf("%q folded to %d", src, v)
		}
	}
}

func TestMalformedIntegerLiteral(t *testing.T) {
	for _, src := range []string{"int a = 0x;", "int a = 08;", "int a = 99999999999999999999;"} {
		_, errs := ParseText("t.c", src)
		if len(errs) != 1 || !strings.Contains(errs[0].Error(), "malformed integer literal") {
			t.Errorf("%q: errors %v", src, errs)
		}
	}
}

func TestDoWhileMissingSemicolonDiagnosed(t *testing.T) {
	_, errs := ParseText("t.c", `void g(void) { do { } while (1) }`)
	if len(errs) == 0 {
		t.Fatal("missing ; after do-while accepted silently")
	}
}

func TestDanglingElseBindsInner(t *testing.T) {
	f := parse(t, `void g(int a, int b) { if (a) if (b) f1(); else f2(); }`)
	outer := f.Funcs()[0].Body.Stmts[0].(*ast.If)
	if outer.Else != nil {
		t.Fatal("else bound to outer if")
	}
	inner := outer.Then.(*ast.If)
	if inner.Else == nil {
		t.Fatal("else lost")
	}
}

func TestNestedTernary(t *testing.T) {
	f := parse(t, `int v = a ? b : c ? d : e;`)
	top := f.Decls[0].(*ast.VarDecl).Init.(*ast.Cond)
	if _, ok := top.Else.(*ast.Cond); !ok {
		t.Errorf("right associativity: %s", ast.ExprString(top))
	}
}

func TestChainedRelationalLeftAssoc(t *testing.T) {
	f := parse(t, `int v = a < b < c;`)
	top := f.Decls[0].(*ast.VarDecl).Init.(*ast.Binary)
	l, ok := top.X.(*ast.Binary)
	if !ok || ast.ExprString(l) != "a < b" {
		t.Errorf("assoc: %s", ast.ExprString(top))
	}
}

func TestUnaryPrecedence(t *testing.T) {
	f := parse(t, `int v = -a * !b;`)
	got := ast.ExprString(f.Decls[0].(*ast.VarDecl).Init)
	if got != "-a * !b" {
		t.Errorf("got %q", got)
	}
	top := f.Decls[0].(*ast.VarDecl).Init.(*ast.Binary)
	if _, ok := top.X.(*ast.Unary); !ok {
		t.Error("unary does not bind tighter than *")
	}
}

func TestSizeofPrecedence(t *testing.T) {
	f := parse(t, `unsigned v = sizeof x + 1;`)
	// sizeof x + 1 parses as (sizeof x) + 1.
	top, ok := f.Decls[0].(*ast.VarDecl).Init.(*ast.Binary)
	if !ok {
		t.Fatalf("top %s", ast.ExprString(f.Decls[0].(*ast.VarDecl).Init))
	}
	if _, ok := top.X.(*ast.SizeofExpr); !ok {
		t.Errorf("got %s", ast.ExprString(top))
	}
}

func TestCastOfCast(t *testing.T) {
	f := parse(t, `long v = (long)(unsigned)x;`)
	c1 := f.Decls[0].(*ast.VarDecl).Init.(*ast.Cast)
	if _, ok := c1.X.(*ast.Cast); !ok {
		t.Errorf("nested cast: %s", ast.ExprString(c1))
	}
}

func TestVariadicPrototype(t *testing.T) {
	f := parse(t, `int printk(char *fmt, ...);`)
	fd := f.Decls[0].(*ast.FuncDecl)
	if !fd.Variadic || len(fd.Params) != 1 {
		t.Errorf("variadic=%v params=%d", fd.Variadic, len(fd.Params))
	}
}

func TestArrayParamDecays(t *testing.T) {
	f := parse(t, `void g(unsigned tbl[4]) { }`)
	fd := f.Funcs()[0]
	if !types.IsPointer(fd.Params[0].T) {
		t.Errorf("param type %v", fd.Params[0].T)
	}
}

func TestStaticInlineFunctions(t *testing.T) {
	f := parse(t, `
static inline unsigned bump(unsigned v) { return v + 1; }
static unsigned counter;
`)
	fd := f.Funcs()[0]
	if fd.Storage != ast.StorageStatic || !fd.Inline {
		t.Errorf("storage=%v inline=%v", fd.Storage, fd.Inline)
	}
}

func TestErrorFloodBounded(t *testing.T) {
	bad := strings.Repeat("@#$ ", 5000)
	_, errs := ParseText("t.c", bad)
	// Lexer and parser each cap at ~200 diagnostics on garbage input.
	if len(errs) > 500 {
		t.Errorf("error flood: %d errors", len(errs))
	}
}
