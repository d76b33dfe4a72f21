package sched

import (
	"bytes"
	goast "go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"sort"
	"sync"
	"testing"

	"flashmc/internal/cc/ast"
	"flashmc/internal/cc/cpp"
	ctoken "flashmc/internal/cc/token"
	"flashmc/internal/cc/types"
	"flashmc/internal/core"
	"flashmc/internal/depot"
	"flashmc/internal/lint"
)

// fpSource exercises every field FnFingerprint hashes.
const fpSource = `struct s { int a; int b; };
static inline int f(int x, struct s *p, ...)
{
	const int k = 1;
	char *str = "hi";
	double d = 1.5;
	int c = 'c';
	x++;
	x = -x + k;
	p->a = (int)d;
	x += sizeof(struct s);
	while (x) { break; }
	goto out;
out:
	return x + c + p->b + str[0];
}
`

// parseFn loads src and returns its one function definition.
func parseFn(t *testing.T, src string) *ast.FuncDecl {
	t.Helper()
	prog, err := core.Load("fp", cpp.MapSource{"fp.c": src}, []string{"fp.c"})
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.ParseErrors) > 0 || len(prog.Fns) != 1 {
		t.Fatalf("parse: %d functions, errors %v", len(prog.Fns), prog.ParseErrors)
	}
	return prog.Fns[0]
}

// first returns fn's first node of type T (in pre-order) that keep
// accepts.
func first[T ast.Node](t *testing.T, fn *ast.FuncDecl, keep func(T) bool) T {
	t.Helper()
	var found T
	ok := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if x, is := n.(T); is && !ok && (keep == nil || keep(x)) {
			found, ok = x, true
		}
		return !ok
	})
	if !ok {
		t.Fatalf("no %T in test function", found)
	}
	return found
}

func identNamed(name string) func(*ast.Ident) bool {
	return func(id *ast.Ident) bool { return id.Name == name }
}

// TestFnFingerprintCoversEveryField: mutating any one hashed field of
// a parsed function changes its fingerprint.
func TestFnFingerprintCoversEveryField(t *testing.T) {
	long := &types.Basic{Kind: types.Long}
	cases := []struct {
		name   string
		mutate func(*testing.T, *ast.FuncDecl)
	}{
		{"node kind", func(t *testing.T, fn *ast.FuncDecl) {
			body := first[*ast.While](t, fn, nil).Body.(*ast.Block)
			c := &ast.Continue{}
			c.P = body.Stmts[0].Pos()
			body.Stmts[0] = c
		}},
		{"file", func(t *testing.T, fn *ast.FuncDecl) { first(t, fn, identNamed("x")).P.File = "other.c" }},
		{"line", func(t *testing.T, fn *ast.FuncDecl) { first(t, fn, identNamed("x")).P.Line++ }},
		{"column", func(t *testing.T, fn *ast.FuncDecl) { first(t, fn, identNamed("x")).P.Col++ }},
		{"identifier name", func(t *testing.T, fn *ast.FuncDecl) { first(t, fn, identNamed("x")).Name = "y" }},
		{"int literal", func(t *testing.T, fn *ast.FuncDecl) { first[*ast.IntLit](t, fn, nil).Text = "2" }},
		{"float literal", func(t *testing.T, fn *ast.FuncDecl) { first[*ast.FloatLit](t, fn, nil).Text = "2.5" }},
		{"char literal", func(t *testing.T, fn *ast.FuncDecl) { first[*ast.CharLit](t, fn, nil).Text = "'d'" }},
		{"string literal", func(t *testing.T, fn *ast.FuncDecl) { first[*ast.StringLit](t, fn, nil).Text = `"ho"` }},
		{"member name", func(t *testing.T, fn *ast.FuncDecl) { first[*ast.Member](t, fn, nil).Name = "b" }},
		{"member arrow", func(t *testing.T, fn *ast.FuncDecl) { first[*ast.Member](t, fn, nil).Arrow = false }},
		{"unary op", func(t *testing.T, fn *ast.FuncDecl) {
			first(t, fn, func(u *ast.Unary) bool { return !u.Postfix }).Op = ctoken.Tilde
		}},
		{"unary postfix", func(t *testing.T, fn *ast.FuncDecl) {
			first(t, fn, func(u *ast.Unary) bool { return u.Postfix }).Postfix = false
		}},
		{"binary op", func(t *testing.T, fn *ast.FuncDecl) { first[*ast.Binary](t, fn, nil).Op = ctoken.Sub }},
		{"assign op", func(t *testing.T, fn *ast.FuncDecl) { first[*ast.Assign](t, fn, nil).Op = ctoken.OrAssign }},
		{"cast type", func(t *testing.T, fn *ast.FuncDecl) { first[*ast.Cast](t, fn, nil).To = long }},
		{"sizeof type", func(t *testing.T, fn *ast.FuncDecl) { first[*ast.SizeofType](t, fn, nil).Of = long }},
		{"expression type", func(t *testing.T, fn *ast.FuncDecl) { first(t, fn, identNamed("x")).SetType(long) }},
		{"declared type", func(t *testing.T, fn *ast.FuncDecl) { first[*ast.VarDecl](t, fn, nil).T = long }},
		{"var name", func(t *testing.T, fn *ast.FuncDecl) { first[*ast.VarDecl](t, fn, nil).Name = "kk" }},
		{"var storage", func(t *testing.T, fn *ast.FuncDecl) {
			first[*ast.VarDecl](t, fn, nil).Storage = ast.StorageStatic
		}},
		{"var const", func(t *testing.T, fn *ast.FuncDecl) { first[*ast.VarDecl](t, fn, nil).Const = false }},
		{"goto label", func(t *testing.T, fn *ast.FuncDecl) { first[*ast.Goto](t, fn, nil).Label = "in" }},
		{"function name", func(t *testing.T, fn *ast.FuncDecl) { fn.Name = "g" }},
		{"function variadic", func(t *testing.T, fn *ast.FuncDecl) { fn.Variadic = false }},
		{"function storage", func(t *testing.T, fn *ast.FuncDecl) { fn.Storage = ast.StorageNone }},
		{"function inline", func(t *testing.T, fn *ast.FuncDecl) { fn.Inline = false }},
		{"function end line", func(t *testing.T, fn *ast.FuncDecl) { fn.EndPos.Line++ }},
		{"return type", func(t *testing.T, fn *ast.FuncDecl) { fn.Ret = long }},
		{"parameter name", func(t *testing.T, fn *ast.FuncDecl) { fn.Params[0].Name = "z" }},
		{"parameter type", func(t *testing.T, fn *ast.FuncDecl) { fn.Params[0].T = long }},
	}
	base := FnFingerprint(parseFn(t, fpSource))
	if again := FnFingerprint(parseFn(t, fpSource)); again != base {
		t.Fatal("fingerprint differs across identical parses")
	}
	for _, tc := range cases {
		fn := parseFn(t, fpSource)
		tc.mutate(t, fn)
		if FnFingerprint(fn) == base {
			t.Errorf("%s: mutation left the fingerprint unchanged", tc.name)
		}
	}
}

// TestFnFingerprintLengthPrefixed: moving a byte across a string
// boundary (identifiers ab, c vs a, bc at the same positions) changes
// the fingerprint.
func TestFnFingerprintLengthPrefixed(t *testing.T) {
	const src = "int f(int ab, int c) { return ab + c; }\n"
	split := func(x, y string) string {
		fn := parseFn(t, src)
		bin := first[*ast.Binary](t, fn, nil)
		bin.X.(*ast.Ident).Name, bin.Y.(*ast.Ident).Name = x, y
		return FnFingerprint(fn)
	}
	if split("ab", "c") == split("a", "bc") {
		t.Fatal("identifiers ab+c and a+bc hash the same")
	}

	// The same holds for adjacent strings in the encoding itself.
	enc := func(x, y string) []byte {
		f := newFnHasher()
		f.str(x)
		f.str(y)
		return f.buf
	}
	if bytes.Equal(enc("ab", "c"), enc("a", "bc")) {
		t.Fatal("adjacent strings ab+c and a+bc encode the same")
	}
}

// TestNodeKindsDistinct: every AST node type declared in package ast
// has its own kind tag, distinct from the file record's.
func TestNodeKindsDistinct(t *testing.T) {
	nodes := []ast.Node{
		&ast.Ident{}, &ast.IntLit{}, &ast.FloatLit{}, &ast.CharLit{}, &ast.StringLit{},
		&ast.Paren{}, &ast.Unary{}, &ast.Binary{}, &ast.Assign{}, &ast.Cond{},
		&ast.Call{}, &ast.Index{}, &ast.Member{}, &ast.Cast{}, &ast.SizeofExpr{},
		&ast.SizeofType{}, &ast.InitList{}, &ast.Wildcard{},
		&ast.ExprStmt{}, &ast.DeclStmt{}, &ast.Block{}, &ast.If{}, &ast.While{},
		&ast.DoWhile{}, &ast.For{}, &ast.Switch{}, &ast.Case{}, &ast.Break{},
		&ast.Continue{}, &ast.Return{}, &ast.Goto{}, &ast.Labeled{}, &ast.Empty{},
		&ast.VarDecl{}, &ast.FuncDecl{}, &ast.TypeDecl{}, &ast.File{},
	}
	seen := map[byte]string{kindFile: "file record"}
	var listed []string
	for _, n := range nodes {
		name := reflect.TypeOf(n).Elem().Name()
		listed = append(listed, name)
		k := nodeKind(n)
		if prev, dup := seen[k]; dup {
			t.Errorf("%s shares kind %d with %s", name, k, prev)
		}
		seen[k] = name
	}

	// The list above must name every node type package ast declares:
	// the exprNode/stmtNode/declNode implementers plus File.
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "../cc/ast/ast.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := []string{"File"}
	for _, d := range f.Decls {
		fd, ok := d.(*goast.FuncDecl)
		if !ok || fd.Recv == nil {
			continue
		}
		switch fd.Name.Name {
		case "exprNode", "stmtNode", "declNode":
			declared = append(declared, fd.Recv.List[0].Type.(*goast.StarExpr).X.(*goast.Ident).Name)
		}
	}
	sort.Strings(listed)
	sort.Strings(declared)
	if !reflect.DeepEqual(listed, declared) {
		t.Fatalf("node list out of date:\n listed   %v\n declared %v", listed, declared)
	}
}

// TestFingerprintAllocs bounds the hashing walk's allocations: at most
// 8 per function over one generated protocol.
func TestFingerprintAllocs(t *testing.T) {
	_, prog := loadProto(t, nil)
	perRun := testing.AllocsPerRun(5, func() { computeFingerprints(prog) })
	perFn := perRun / float64(len(prog.Fns))
	t.Logf("%.1f allocations per function (%.0f for %d functions)", perFn, perRun, len(prog.Fns))
	if perFn > 8 {
		t.Fatalf("%.1f allocations per function, want <= 8", perFn)
	}
}

// TestFingerprintsMemoized: after the first call, reading a program's
// fingerprints allocates nothing and returns the same slice.
func TestFingerprintsMemoized(t *testing.T) {
	_, prog := loadProto(t, nil)
	fps := Fingerprints(prog)
	if allocs := testing.AllocsPerRun(10, func() {
		Fingerprints(prog)
		ProgramFingerprintOf(prog)
	}); allocs != 0 {
		t.Fatalf("memoized read allocates %.0f times", allocs)
	}
	if again := Fingerprints(prog); &again[0] != &fps[0] {
		t.Fatal("second call recomputed the fingerprints")
	}
	if ProgramFingerprintOf(prog) != ProgramFingerprint(prog, fps) {
		t.Fatal("memoized program fingerprint differs from ProgramFingerprint")
	}
}

// TestConcurrentCheckAndTriageAgree: Check and TriageReports racing on
// one freshly loaded program (so its fingerprint memo is filled under
// contention) give the same streams as a serial run on a separate
// load.
func TestConcurrentCheckAndTriageAgree(t *testing.T) {
	proto, ref := loadProto(t, nil)
	jobs := FlashJobs(proto.Spec)
	sms, versions := triageSMs(proto.Spec)
	opts := lint.TriageOptions{Mode: lint.ModeSym}
	refRes, err := (&Analyzer{}).Check(Request{Prog: ref, Spec: proto.Spec, Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	refRanked, _ := (&Analyzer{}).TriageReports(TriageRequest{Prog: ref, SMs: sms,
		Versions: versions, Reports: refRes.Reports, Options: opts})

	_, shared := loadProto(t, nil)
	d, err := depot.Open("")
	if err != nil {
		t.Fatal(err)
	}
	an := &Analyzer{Depot: d}
	const n = 2
	checks, ranks := make([][]byte, n), make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			res, err := an.Check(Request{Prog: shared, Spec: proto.Spec, Jobs: jobs})
			if err != nil {
				t.Error(err)
				return
			}
			checks[i] = render(res.Reports)
		}(i)
		go func(i int) {
			defer wg.Done()
			ranked, _ := an.TriageReports(TriageRequest{Prog: shared, SMs: sms,
				Versions: versions, Reports: refRes.Reports, Options: opts})
			ranks[i] = renderRanked(ranked)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if !bytes.Equal(checks[i], render(refRes.Reports)) {
			t.Errorf("concurrent Check %d diverged from the serial run", i)
		}
		if !bytes.Equal(ranks[i], renderRanked(refRanked)) {
			t.Errorf("concurrent TriageReports %d diverged from the serial run", i)
		}
	}
	if !reflect.DeepEqual(Fingerprints(shared), Fingerprints(ref)) {
		t.Error("shared program's fingerprints differ from a separate load's")
	}
}
