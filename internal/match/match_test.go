package match

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flashmc/internal/cc/ast"
	"flashmc/internal/cc/parser"
	"flashmc/internal/cc/sem"
)

func pat(t *testing.T, src string, wild map[string]string) ast.Expr {
	t.Helper()
	e, err := parser.ParseExprPattern(src, parser.PatternContext{Wildcards: wild})
	if err != nil {
		t.Fatalf("pattern %q: %v", src, err)
	}
	return e
}

func subj(t *testing.T, src string) ast.Expr {
	t.Helper()
	e, err := parser.ParseExprPattern(src, parser.PatternContext{})
	if err != nil {
		t.Fatalf("subject %q: %v", src, err)
	}
	return e
}

func TestExactMatch(t *testing.T) {
	p := pat(t, "WAIT_FOR_DB_FULL(addr)", map[string]string{"addr": "scalar"})
	s := subj(t, "WAIT_FOR_DB_FULL(hdr + 4)")
	env, ok := Expr(p, s, nil)
	if !ok {
		t.Fatal("no match")
	}
	if ast.ExprString(env["addr"]) != "hdr + 4" {
		t.Errorf("bound %q", ast.ExprString(env["addr"]))
	}
}

func TestArityMismatch(t *testing.T) {
	p := pat(t, "F(a, b)", map[string]string{"a": "", "b": ""})
	if _, ok := Expr(p, subj(t, "F(1)"), nil); ok {
		t.Error("matched wrong arity")
	}
	if _, ok := Expr(p, subj(t, "F(1, 2, 3)"), nil); ok {
		t.Error("matched wrong arity")
	}
}

func TestCalleeMustAgree(t *testing.T) {
	p := pat(t, "PI_SEND(x)", map[string]string{"x": ""})
	if _, ok := Expr(p, subj(t, "NI_SEND(1)"), nil); ok {
		t.Error("different callee matched")
	}
}

func TestRepeatedWildcardRequiresEquality(t *testing.T) {
	p := pat(t, "cmp(x, x)", map[string]string{"x": ""})
	if _, ok := Expr(p, subj(t, "cmp(a + 1, a + 1)"), nil); !ok {
		t.Error("equal args should match")
	}
	if _, ok := Expr(p, subj(t, "cmp(a, b)"), nil); ok {
		t.Error("unequal args matched")
	}
}

func TestParensTransparent(t *testing.T) {
	p := pat(t, "f(x)", map[string]string{"x": ""})
	if _, ok := Expr(p, subj(t, "(f((y + 2)))"), nil); !ok {
		t.Error("parens blocked match")
	}
}

func TestLiteralValueMatching(t *testing.T) {
	p := pat(t, "g(16)", nil)
	if _, ok := Expr(p, subj(t, "g(0x10)"), nil); !ok {
		t.Error("hex 0x10 should equal 16")
	}
	if _, ok := Expr(p, subj(t, "g(17)"), nil); ok {
		t.Error("17 matched 16")
	}
}

func TestMemberAndAssignPatterns(t *testing.T) {
	p := pat(t, "HANDLER_GLOBALS(header.nh.len) = LEN_NODATA", nil)
	s := subj(t, "HANDLER_GLOBALS(header.nh.len) = LEN_NODATA")
	if _, ok := Expr(p, s, nil); !ok {
		t.Error("no match")
	}
	s2 := subj(t, "HANDLER_GLOBALS(header.nh.len) = LEN_WORD")
	if _, ok := Expr(p, s2, nil); ok {
		t.Error("different RHS matched")
	}
	s3 := subj(t, "HANDLER_GLOBALS(header.nh.cnt) = LEN_NODATA")
	if _, ok := Expr(p, s3, nil); ok {
		t.Error("different member matched")
	}
}

func TestArrowVsDot(t *testing.T) {
	p := pat(t, "h.len", nil)
	if _, ok := Expr(p, subj(t, "h->len"), nil); ok {
		t.Error("-> matched .")
	}
}

func TestConstraintConst(t *testing.T) {
	p := pat(t, "set_len(k)", map[string]string{"k": "const"})
	if _, ok := Expr(p, subj(t, "set_len(4)"), nil); !ok {
		t.Error("literal should satisfy const")
	}
	if _, ok := Expr(p, subj(t, "set_len(n)"), nil); ok {
		t.Error("identifier satisfied const")
	}
}

func TestConstraintID(t *testing.T) {
	p := pat(t, "free_buf(v)", map[string]string{"v": "id"})
	if _, ok := Expr(p, subj(t, "free_buf(buf)"), nil); !ok {
		t.Error("ident should satisfy id")
	}
	if _, ok := Expr(p, subj(t, "free_buf(buf + 1)"), nil); ok {
		t.Error("expression satisfied id")
	}
}

func TestConstraintFloatUsesTypes(t *testing.T) {
	// Type-check a real function so expressions carry types.
	f, errs := parser.ParseText("t.c", `
void g(void) {
	double d;
	int i;
	use(d);
	use(i);
}`)
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	c := sem.NewChecker(sem.NewEnv())
	c.Check(f)
	body := f.Funcs()[0].Body
	useD := body.Stmts[2].(*ast.ExprStmt).X
	useI := body.Stmts[3].(*ast.ExprStmt).X
	p := pat(t, "use(v)", map[string]string{"v": "float"})
	if _, ok := Expr(p, useD, nil); !ok {
		t.Error("use(d) should match float wildcard")
	}
	if _, ok := Expr(p, useI, nil); ok {
		t.Error("use(i) matched float wildcard")
	}
}

func TestEnvNotMutatedOnFailure(t *testing.T) {
	p := pat(t, "f(x, x)", map[string]string{"x": ""})
	base := Env{"pre": subj(t, "kept")}
	_, ok := Expr(p, subj(t, "f(1, 2)"), base)
	if ok {
		t.Fatal("should not match")
	}
	if len(base) != 1 {
		t.Errorf("env mutated: %v", base)
	}
	env2, ok := Expr(p, subj(t, "f(3, 3)"), base)
	if !ok {
		t.Fatal("should match")
	}
	if _, exists := env2["pre"]; !exists {
		t.Error("prior bindings lost")
	}
	if _, exists := base["x"]; exists {
		t.Error("success mutated the input env")
	}
}

func TestFindSubexpressions(t *testing.T) {
	f, errs := parser.ParseText("t.c", `
void g(void) {
	int v;
	v = MISCBUS_READ_DB(a, b) + MISCBUS_READ_DB(c, d);
}`)
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	p := pat(t, "MISCBUS_READ_DB(x, y)", map[string]string{"x": "", "y": ""})
	results := Find(p, f.Funcs()[0].Body, nil)
	if len(results) != 2 {
		t.Fatalf("found %d", len(results))
	}
	if ast.ExprString(results[0].Env["x"]) != "a" || ast.ExprString(results[1].Env["x"]) != "c" {
		t.Errorf("bindings %v %v", results[0].Env, results[1].Env)
	}
}

func TestStmtPatterns(t *testing.T) {
	retPat, err := parser.ParseStmtPattern("return;", parser.PatternContext{})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := parser.ParseText("t.c", `void g(int c) { if (c) return; c = 1; }`)
	var matched int
	ast.Inspect(f, func(n ast.Node) bool {
		if s, ok := n.(ast.Stmt); ok {
			if _, ok := Stmt(retPat, s, nil); ok {
				matched++
			}
		}
		return true
	})
	if matched != 1 {
		t.Errorf("return; matched %d times", matched)
	}
}

func TestStmtReturnValuePattern(t *testing.T) {
	p, err := parser.ParseStmtPattern("return v;", parser.PatternContext{
		Wildcards: map[string]string{"v": ""}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := parser.ParseStmtPattern("return x + 1;", parser.PatternContext{})
	if err != nil {
		t.Fatal(err)
	}
	env, ok := Stmt(p, s, nil)
	if !ok || ast.ExprString(env["v"]) != "x + 1" {
		t.Errorf("ok=%v env=%v", ok, env)
	}
	// return; must not match return v;
	bare, _ := parser.ParseStmtPattern("return;", parser.PatternContext{})
	if _, ok := Stmt(p, bare, nil); ok {
		t.Error("return v matched bare return")
	}
}

// randExprSrc builds random expression source from a small grammar.
func randExprSrc(rng *rand.Rand, depth int) string {
	if depth <= 0 || rng.Intn(3) == 0 {
		atoms := []string{"a", "b", "buf", "42", "0x1f", "'c'", `"s"`, "hdr.len", "p->next"}
		return atoms[rng.Intn(len(atoms))]
	}
	switch rng.Intn(5) {
	case 0:
		ops := []string{"+", "-", "*", "&", "|", "==", "<<"}
		return "(" + randExprSrc(rng, depth-1) + " " + ops[rng.Intn(len(ops))] + " " + randExprSrc(rng, depth-1) + ")"
	case 1:
		return "f(" + randExprSrc(rng, depth-1) + ", " + randExprSrc(rng, depth-1) + ")"
	case 2:
		return "!" + randExprSrc(rng, depth-1)
	case 3:
		return randExprSrc(rng, depth-1) + "[" + randExprSrc(rng, depth-1) + "]"
	default:
		return "(" + randExprSrc(rng, depth-1) + ")"
	}
}

// Property: every expression matches itself as a pattern (identity
// patterns have no wildcards), and EqualExpr is reflexive.
func TestSelfMatchProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := randExprSrc(rng, 4)
		e1, err := parser.ParseExprPattern(src, parser.PatternContext{})
		if err != nil {
			return false
		}
		e2, err := parser.ParseExprPattern(src, parser.PatternContext{})
		if err != nil {
			return false
		}
		if !EqualExpr(e1, e2) {
			t.Logf("not self-equal: %s", src)
			return false
		}
		if _, ok := Expr(e1, e2, nil); !ok {
			t.Logf("no self-match: %s", src)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a single wildcard pattern matches anything and binds the
// whole subject.
func TestWildcardMatchesAnythingProperty(t *testing.T) {
	w := map[string]string{"hole": ""}
	p := pat(t, "hole", w)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := randExprSrc(rng, 3)
		subj, err := parser.ParseExprPattern(src, parser.PatternContext{})
		if err != nil {
			return false
		}
		env, ok := Expr(p, subj, nil)
		if !ok {
			return false
		}
		return EqualExpr(env["hole"], subj)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: wrapping the subject in parentheses never changes whether
// a pattern matches.
func TestParenInvarianceProperty(t *testing.T) {
	w := map[string]string{"x": "", "y": ""}
	p := pat(t, "f(x, y)", w)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inner := randExprSrc(rng, 2)
		bare, err1 := parser.ParseExprPattern("f("+inner+", b)", parser.PatternContext{})
		wrapped, err2 := parser.ParseExprPattern("((f((("+inner+")), (b))))", parser.PatternContext{})
		if err1 != nil || err2 != nil {
			return false
		}
		_, ok1 := Expr(p, bare, nil)
		_, ok2 := Expr(p, wrapped, nil)
		return ok1 && ok2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUnderscoreWildcardDoesNotBind(t *testing.T) {
	p := pat(t, "f(_, _)", map[string]string{"_": ""})
	env, ok := Expr(p, subj(t, "f(1, 2)"), nil)
	if !ok {
		t.Fatal("underscore should match without equality requirement")
	}
	if _, bound := env["_"]; bound {
		t.Error("underscore bound")
	}
}

// firstStmt parses a one-function file and returns the first statement
// of its body.
func firstStmt(t *testing.T, src string) ast.Stmt {
	t.Helper()
	f, errs := parser.ParseText("t.c", src)
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	return f.Funcs()[0].Body.Stmts[0]
}

func TestFirstMissAllocatesNothing(t *testing.T) {
	s := firstStmt(t, `void g(void) {
	v = MISCBUS_READ_DB(a, b) + MISCBUS_READ_DB(c, d) + DIR_ADDR(f(a, a));
}`)
	base := Env{"y": subj(t, "e")}
	for _, tc := range []struct {
		src  string
		wild map[string]string
	}{
		// No candidate gets past the callee.
		{"WAIT_FOR_DB_FULL(x)", map[string]string{"x": ""}},
		// Every call binds x to its first argument, then fails.
		{"MISCBUS_READ_DB(x, x)", map[string]string{"x": ""}},
		// Binds x, then fails on the base Env's y.
		{"MISCBUS_READ_DB(x, y)", map[string]string{"x": "", "y": ""}},
	} {
		p := pat(t, tc.src, tc.wild)
		if _, _, ok := First(p, s, base); ok {
			t.Fatalf("%s matched", tc.src)
		}
		if n := testing.AllocsPerRun(100, func() { First(p, s, base) }); n != 0 {
			t.Errorf("a First miss of %s allocates %v objects, want 0", tc.src, n)
		}
	}
}

func TestTrailUndo(t *testing.T) {
	p := pat(t, "k(x, x)", map[string]string{"x": ""})
	s := subj(t, "g(k(a, b), k(c, c))")
	// k(a, b) binds x=a and fails; the hit must not see that binding.
	hit, env, ok := First(p, s, nil)
	if !ok || ast.ExprString(hit) != "k(c, c)" || ast.ExprString(env["x"]) != "c" || len(env) != 1 {
		t.Fatalf("First = %v %v %v, want k(c, c) {x: c}", hit, env, ok)
	}
	if got := Find(p, s, nil); len(got) != 1 || got[0].Expr != hit || len(got[0].Env) != 1 {
		t.Fatalf("Find = %v, want just k(c, c)", got)
	}
	// A pre-bound x is honoured, not shadowed by the trail.
	c := subj(t, "c")
	if hit, env, ok := First(p, s, Env{"x": c}); !ok || ast.ExprString(hit) != "k(c, c)" || env["x"] != c {
		t.Errorf("with x=c bound: First = %v %v %v, want k(c, c) with the caller's c", hit, env, ok)
	}
	if hit, _, ok := First(p, s, Env{"x": subj(t, "a")}); ok {
		t.Errorf("with x=a bound: First hit %s", ast.ExprString(hit))
	}
	if got := Find(p, s, Env{"x": subj(t, "a")}); len(got) != 0 {
		t.Errorf("with x=a bound: Find = %v", got)
	}
}

// TestCallerEnvNeverMutated covers every entry point, on a hit and on a
// miss, with the caller's Env holding one of the pattern's names.
func TestCallerEnvNeverMutated(t *testing.T) {
	p := pat(t, "k(x, y)", map[string]string{"x": "", "y": ""})
	stmtPat, err := parser.ParseStmtPattern("k(x, y);", parser.PatternContext{
		Wildcards: map[string]string{"x": "", "y": ""}})
	if err != nil {
		t.Fatal(err)
	}
	hit := firstStmt(t, `void g(void) { k(a, k(a, b)); }`)
	miss := firstStmt(t, `void g(void) { k(b, c); }`)
	a := subj(t, "a")
	base := Env{"x": a}
	for _, s := range []ast.Stmt{hit, miss} {
		e := s.(*ast.ExprStmt).X
		Stmt(stmtPat, s, base)
		Expr(p, e, base)
		First(p, s, base)
		Find(p, s, base)
		if len(base) != 1 || base["x"] != a {
			t.Fatalf("matching %s changed the caller's Env to %v", ast.StmtString(s), base)
		}
	}
	// The hits themselves extend a copy.
	if env, ok := Stmt(stmtPat, hit, base); !ok || ast.ExprString(env["y"]) != "k(a, b)" {
		t.Errorf("Stmt = %v %v", env, ok)
	}
	if _, env, ok := First(p, hit, base); !ok || ast.ExprString(env["y"]) != "k(a, b)" {
		t.Errorf("First = %v %v", env, ok)
	}
	if _, ok := Expr(p, miss.(*ast.ExprStmt).X, base); ok {
		t.Error("k(b, c) matched with x=a bound")
	}
}

// TestConstraintUnknownType pins constraintOK's contract for subjects
// without a type: the scalar, integer and pointer constraints accept
// them, float rejects them.
func TestConstraintUnknownType(t *testing.T) {
	s := subj(t, "f(n)") // pattern-parsed: no types
	if s.(*ast.Call).Args[0].Type() != nil {
		t.Fatal("subject unexpectedly typed")
	}
	for c, want := range map[string]bool{
		"scalar": true, "unsigned": true, "int": true, "integer": true,
		"ptr": true, "pointer": true, "float": false,
	} {
		p := pat(t, "f(v)", map[string]string{"v": c})
		if _, ok := Expr(p, s, nil); ok != want {
			t.Errorf("constraint %s on an untyped subject: matched=%v, want %v", c, ok, want)
		}
	}
}
