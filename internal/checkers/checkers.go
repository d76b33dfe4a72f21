// Package checkers implements the paper's eight FLASH checkers.
// Three are metal programs (buffer race §4, message length §5, buffer
// allocation §9) compiled and executed exactly as a user extension
// would be; the rest are Go-built state machines and AST passes
// against the same engine, mirroring the parts of the paper's tooling
// that used the xg++ API directly (inter-procedural lanes §7,
// execution restrictions §8) or needed checker tables (§6, §9).
//
// All() lists the nine built-in checkers. Each implements Checker,
// whose one run method, CheckCov, returns the reports together with
// the run's dynamic coverage; the six state-machine checkers also
// implement SMProvider, so the scheduler can run their machine per
// function instead.
package checkers

import (
	_ "embed"
	"fmt"
	"sync"

	"flashmc/internal/cc/ast"
	"flashmc/internal/cc/parser"
	"flashmc/internal/core"
	"flashmc/internal/engine"
	"flashmc/internal/flash"
	"flashmc/internal/metal"
)

// Checker is one system-rule checker.
type Checker interface {
	// Name is the stable checker identifier used in manifests.
	Name() string
	// Version is the checker's semantic version. It participates in
	// the depot cache key, so bumping it when the checker's rules
	// change invalidates every cached result the old rules produced.
	Version() string
	// CheckCov runs the checker over a loaded program under a protocol
	// spec and returns its reports plus the dynamic coverage the run
	// produced: one engine.Coverage per analyzed function for SM
	// checkers, one per walked handler (plus one for link errors) for
	// the lane pass, a single synthesized coverage for AST passes.
	// Empty coverages are omitted. internal/cover merges the results
	// across checkers and protocols; callers that want only the reports
	// discard the coverage.
	CheckCov(p *core.Program, spec *flash.Spec) ([]engine.Report, []*engine.Coverage)
	// Applied returns how many program points the check examined (the
	// tables' "Applied" columns); -1 if not meaningful.
	Applied(p *core.Program) int
	// LOC is the size of the checker (metal lines for metal checkers,
	// semantic-core lines for Go checkers) for Table 7.
	LOC() int
}

// SMProvider is implemented by checkers whose analysis is a single
// state machine. BuildSM returns the compiled SM for a protocol spec
// together with the metal wildcard declaration table when the checker
// is written in metal (nil for SMs assembled in Go). Package lint's
// SM passes and cmd/metalint consume it; global checkers (lanes,
// exec-restrict, no-float) have no SM and do not implement it.
type SMProvider interface {
	BuildSM(spec *flash.Spec) (*engine.SM, map[string]string)
}

// Metal checker sources, embedded so the library is self-contained.
var (
	//go:embed metalsrc/wait_for_db.metal
	WaitForDBSource string
	//go:embed metalsrc/msglen.metal
	MsglenSource string
	//go:embed metalsrc/alloc_check.metal
	AllocCheckSource string
)

// compileMetal caches compiled metal programs (pattern compilation is
// pure given the flash header).
var compileMetal = func() func(src string) *metal.Program {
	var mu sync.Mutex
	cache := map[string]*metal.Program{}
	return func(src string) *metal.Program {
		mu.Lock()
		defer mu.Unlock()
		if p, ok := cache[src]; ok {
			return p
		}
		p, err := metal.Compile(src, metal.Options{Include: flash.HeaderSource()})
		if err != nil {
			panic(fmt.Sprintf("embedded metal checker failed to compile: %v", err))
		}
		cache[src] = p
		return p
	}
}()

// mustExprPat compiles an expression pattern with the given wildcard
// constraints, panicking on error (sources are compile-time constants).
func mustExprPat(src string, wild map[string]string) ast.Expr {
	e, err := parser.ParseExprPattern(src, parser.PatternContext{Wildcards: wild})
	if err != nil {
		panic(fmt.Sprintf("bad builtin pattern %q: %v", src, err))
	}
	return e
}

// mustStmtPat compiles a statement pattern.
func mustStmtPat(src string, wild map[string]string) ast.Stmt {
	s, err := parser.ParseStmtPattern(src, parser.PatternContext{Wildcards: wild})
	if err != nil {
		panic(fmt.Sprintf("bad builtin pattern %q: %v", src, err))
	}
	return s
}

// anyArgs builds the permissive wildcard set used for send patterns.
var anyArgs = map[string]string{
	"a1": "", "a2": "", "a3": "", "a4": "", "a5": "", "a6": "",
}

// metalChecker wraps a compiled metal program as a Checker.
type metalChecker struct {
	name    string
	version string
	src     string
	applied []ast.Expr // patterns whose occurrences count as "applied"
}

func (m *metalChecker) Name() string { return m.name }

func (m *metalChecker) Version() string { return m.version }

func (m *metalChecker) LOC() int { return compileMetal(m.src).LOC }

func (m *metalChecker) CheckCov(p *core.Program, spec *flash.Spec) ([]engine.Report, []*engine.Coverage) {
	return p.RunSMCov(compileMetal(m.src).SM)
}

func (m *metalChecker) BuildSM(spec *flash.Spec) (*engine.SM, map[string]string) {
	prog := compileMetal(m.src)
	return prog.SM, prog.Decls
}

func (m *metalChecker) Applied(p *core.Program) int {
	total := 0
	for _, pat := range m.applied {
		total += p.Count(pat)
	}
	return total
}

// NewBufferRace returns the §4 buffer fill race checker (Figure 2).
// Applied counts data-buffer reads.
func NewBufferRace() Checker {
	return &metalChecker{
		name:    "buffer_race",
		version: "1.1.0",
		src:     WaitForDBSource,
		applied: []ast.Expr{
			mustExprPat("MISCBUS_READ_DB(a1, a2)", anyArgs),
			mustExprPat("OLD_MISCBUS_READ(a1)", anyArgs),
		},
	}
}

// sendPatterns lists all message-send expression patterns.
func sendPatterns() []ast.Expr {
	return []ast.Expr{
		mustExprPat("PI_SEND(a1, a2, a3, a4, a5, a6)", anyArgs),
		mustExprPat("IO_SEND(a1, a2, a3, a4, a5, a6)", anyArgs),
		mustExprPat("NI_SEND(a1, a2, a3, a4, a5, a6)", anyArgs),
		mustExprPat("NI_SEND_RPLY(a1, a2, a3, a4, a5, a6)", anyArgs),
	}
}

// NewMsglen returns the §5 message-length consistency checker
// (Figure 3). Applied counts message sends.
func NewMsglen() Checker {
	return &metalChecker{
		name:    "msglen",
		version: "1.1.0",
		src:     MsglenSource,
		applied: sendPatterns(),
	}
}

// NewAllocCheck returns the §9 allocation-failure checker. Applied
// counts buffer allocations.
func NewAllocCheck() Checker {
	return &metalChecker{
		name:    "alloc",
		version: "1.1.0",
		src:     AllocCheckSource,
		applied: []ast.Expr{
			mustExprPat("ALLOC_DB()", nil),
		},
	}
}

// All returns the full checker suite in Table 7 order.
func All() []Checker {
	return []Checker{
		NewBufferMgmt(),
		NewMsglen(),
		NewLanes(),
		NewBufferRace(),
		NewAllocCheck(),
		NewDirectory(),
		NewSendWait(),
		NewExecRestrict(),
		NewNoFloat(),
	}
}
