package checkers

import (
	_ "embed"

	"flashmc/internal/cc/ast"
	"flashmc/internal/cc/token"
	"flashmc/internal/cc/types"
	"flashmc/internal/core"
	"flashmc/internal/engine"
	"flashmc/internal/flash"
)

//go:embed execrestrict.go
var execrestrictSource string

// execRestrict is the §8 execution-restriction checker. It enforces:
//
//   - handlers take no parameters and return no results;
//   - deprecated macros are not used (warning);
//   - simulator hooks open every routine: HANDLER_DEFS() first, then
//     HANDLER_PROLOGUE(id) in handlers or SUBROUTINE_PROLOGUE() in
//     ordinary subroutines — omissions are the Table 5 violations;
//   - "no stack" handlers declare NO_STACK_DECL() exactly once at the
//     top, take no local addresses, declare at most maxNoStackLocals
//     locals, none larger than 64 bits, and bracket every call to
//     another handler with SET_STACKPTR() (no spurious uses).
type execRestrict struct{}

// NewExecRestrict returns the execution-restriction checker.
func NewExecRestrict() Checker { return &execRestrict{} }

func (*execRestrict) Name() string { return "exec" }

func (*execRestrict) Version() string { return "1.1.0" }

func (*execRestrict) LOC() int { return coreLOC(execrestrictSource) }

func (*execRestrict) Applied(p *core.Program) int {
	h, _ := ExecStats(p)
	return h
}

// ExecStats returns Table 5's Handlers (routines examined) and Vars
// (local variables examined) columns.
func ExecStats(p *core.Program) (handlers, vars int) {
	handlers = len(p.Fns)
	for _, fn := range p.Fns {
		vars += len(fn.Params)
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.DeclStmt); ok {
				vars++
			}
			return true
		})
	}
	return handlers, vars
}

// maxNoStackLocals is the "too many local variables" threshold for
// no-stack handlers (they must fit the register file).
const maxNoStackLocals = 16

func (*execRestrict) CheckCov(p *core.Program, spec *flash.Spec) ([]engine.Report, []*engine.Coverage) {
	reports := execReports(p, spec)
	cov := engine.ReportCoverage("exec", reports)
	if cov.Empty() {
		return reports, nil
	}
	return reports, []*engine.Coverage{cov}
}

// checker-core: begin

func execReports(p *core.Program, spec *flash.Spec) []engine.Report {
	var out []engine.Report
	rep := func(tag string, pos token.Pos, fn, msg string) {
		out = append(out, engine.Report{SM: "exec", Rule: tag, Fn: fn, Pos: pos, Msg: msg,
			Trace: engine.Witness(pos, tag, msg)})
	}

	for _, fn := range p.Fns {
		kind := spec.Classify(fn.Name)

		// Handlers take no parameters and return no results.
		if kind != flash.Subroutine {
			if !types.IsVoid(fn.Ret) {
				rep("handler-sig", fn.Pos(), fn.Name, "handler returns a value")
			}
			if len(fn.Params) != 0 {
				rep("handler-sig", fn.Pos(), fn.Name, "handler takes parameters")
			}
		}

		// Deprecated macros (warnings, not Table 5 violations).
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.Call); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == flash.MacroDeprecatedOp {
					rep("deprecated", call.Pos(), fn.Name,
						"deprecated macro "+flash.MacroDeprecatedOp)
				}
			}
			return true
		})

		out = append(out, checkHooks(fn, kind)...)
		if spec.NoStack[fn.Name] {
			out = append(out, checkNoStack(fn, spec)...)
		}
	}
	return out
}

// checkHooks verifies the simulator hook discipline: HANDLER_DEFS()
// must be the first statement and the matching prologue the second.
func checkHooks(fn *ast.FuncDecl, kind flash.HandlerKind) []engine.Report {
	var out []engine.Report
	rep := func(msg string) {
		out = append(out, engine.Report{SM: "exec", Rule: "hook-missing",
			Fn: fn.Name, Pos: fn.Pos(), Msg: msg,
			Trace: engine.Witness(fn.Pos(), "hook-missing", msg)})
	}
	stmts := fn.Body.Stmts
	callee := func(i int) string {
		if i >= len(stmts) {
			return ""
		}
		es, ok := stmts[i].(*ast.ExprStmt)
		if !ok {
			return ""
		}
		call, ok := es.X.(*ast.Call)
		if !ok {
			return ""
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok {
			return ""
		}
		return id.Name
	}
	if callee(0) != flash.MacroHandlerDefs {
		rep("first statement must be HANDLER_DEFS()")
		return out
	}
	want := flash.MacroSubrPrologue
	if kind != flash.Subroutine {
		want = flash.MacroHandlerPrologue
	}
	if callee(1) != want {
		rep("second statement must be " + want + "()")
	}
	return out
}

// checkNoStack enforces the no-stack discipline on one handler.
func checkNoStack(fn *ast.FuncDecl, spec *flash.Spec) []engine.Report {
	var out []engine.Report
	rep := func(tag string, pos token.Pos, msg string) {
		out = append(out, engine.Report{SM: "exec", Rule: tag, Fn: fn.Name, Pos: pos, Msg: msg,
			Trace: engine.Witness(pos, tag, msg)})
	}

	// Exactly one NO_STACK_DECL, among the first three statements
	// (after the two simulator hooks).
	declCount := 0
	declEarly := false
	for i, s := range fn.Body.Stmts {
		if nameOfCallStmt(s) == flash.MacroNoStackDecl {
			declCount++
			if i <= 2 {
				declEarly = true
			}
		}
	}
	switch {
	case declCount == 0:
		rep("nostack-decl", fn.Pos(), "no-stack handler missing NO_STACK_DECL()")
	case declCount > 1:
		rep("nostack-decl", fn.Pos(), "duplicate NO_STACK_DECL()")
	case !declEarly:
		rep("nostack-decl", fn.Pos(), "NO_STACK_DECL() must open the handler")
	}

	// Locals: count, size, and address-taking.
	locals := map[string]bool{}
	nLocals := 0
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		ds, ok := n.(*ast.DeclStmt)
		if !ok {
			return true
		}
		nLocals++
		locals[ds.Decl.Name] = true
		t := types.Unwrap(ds.Decl.T)
		if _, isArr := t.(*types.Array); isArr {
			rep("nostack-size", ds.Pos(), "array local in no-stack handler")
		} else if sz := t.Size(); sz > 8 {
			rep("nostack-size", ds.Pos(), "local larger than 64 bits in no-stack handler")
		}
		return true
	})
	if nLocals > maxNoStackLocals {
		rep("nostack-count", fn.Pos(), "too many locals for a no-stack handler")
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		u, ok := n.(*ast.Unary)
		if !ok || u.Op != token.BitAnd || u.Postfix {
			return true
		}
		if id, ok := u.X.(*ast.Ident); ok && locals[id.Name] {
			rep("nostack-addr", u.Pos(), "address of local taken in no-stack handler")
		}
		return true
	})

	// SET_STACKPTR discipline over every statement sequence.
	var walkSeq func(stmts []ast.Stmt)
	walkSeq = func(stmts []ast.Stmt) {
		for i, s := range stmts {
			if nameOfCallStmt(s) == flash.MacroSetStackPtr {
				next := ""
				if i+1 < len(stmts) {
					next = nameOfCallStmt(stmts[i+1])
				}
				if next == "" || spec.Classify(next) == flash.Subroutine {
					rep("stackptr-spurious", s.Pos(), "SET_STACKPTR() not followed by a handler call")
				}
				continue
			}
			if callee := nameOfCallStmt(s); callee != "" && spec.Classify(callee) != flash.Subroutine {
				prev := ""
				if i > 0 {
					prev = nameOfCallStmt(stmts[i-1])
				}
				if prev != flash.MacroSetStackPtr {
					rep("stackptr-missing", s.Pos(), "handler call without preceding SET_STACKPTR()")
				}
			}
		}
		// Recurse into nested blocks.
		for _, s := range stmts {
			switch x := s.(type) {
			case *ast.Block:
				walkSeq(x.Stmts)
			case *ast.If:
				walkBody(x.Then, walkSeq)
				walkBody(x.Else, walkSeq)
			case *ast.While:
				walkBody(x.Body, walkSeq)
			case *ast.DoWhile:
				walkBody(x.Body, walkSeq)
			case *ast.For:
				walkBody(x.Body, walkSeq)
			case *ast.Switch:
				walkSeq(x.Body.Stmts)
			case *ast.Labeled:
				walkBody(x.Stmt, walkSeq)
			}
		}
	}
	walkSeq(fn.Body.Stmts)
	return out
}

// checker-core: end

// walkBody applies f to a statement treated as a sequence.
func walkBody(s ast.Stmt, f func([]ast.Stmt)) {
	switch x := s.(type) {
	case nil:
	case *ast.Block:
		f(x.Stmts)
	default:
		f([]ast.Stmt{s})
	}
}

// nameOfCallStmt returns the callee name when s is exactly a call
// statement, else "".
func nameOfCallStmt(s ast.Stmt) string {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return ""
	}
	call, ok := es.X.(*ast.Call)
	if !ok {
		return ""
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return ""
	}
	return id.Name
}
