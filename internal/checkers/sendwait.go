package checkers

import (
	_ "embed"

	"flashmc/internal/cc/ast"
	"flashmc/internal/core"
	"flashmc/internal/engine"
	"flashmc/internal/flash"
)

//go:embed sendwait.go
var sendwaitSource string

// sendWait is the §9 send-wait pairing checker: a send whose wait bit
// is set must be followed by a wait on the matching hardware interface
// (WAIT_FOR_PI_REPLY / WAIT_FOR_IO_REPLY), with no other send in
// between; otherwise the machine deadlocks.
type sendWait struct{}

// NewSendWait returns the send-wait checker.
func NewSendWait() Checker { return &sendWait{} }

func (*sendWait) Name() string { return "sendwait" }

func (*sendWait) Version() string { return "1.1.0" }

func (*sendWait) LOC() int { return coreLOC(sendwaitSource) }

// waitingSendPatterns matches PI/IO sends whose wait argument is the
// literal 1.
func waitingSendPatterns() (pi, io []ast.Expr) {
	w := map[string]string{"a1": "", "a2": "", "a3": "", "a5": "", "a6": ""}
	pi = []ast.Expr{mustExprPat("PI_SEND(a1, a2, a3, 1, a5, a6)", w)}
	io = []ast.Expr{mustExprPat("IO_SEND(a1, a2, a3, 1, a5, a6)", w)}
	return pi, io
}

func (*sendWait) Applied(p *core.Program) int {
	pi, io := waitingSendPatterns()
	total := 0
	for _, pat := range append(pi, io...) {
		total += p.Count(pat)
	}
	return total
}

func (*sendWait) CheckCov(p *core.Program, spec *flash.Spec) ([]engine.Report, []*engine.Coverage) {
	return p.RunSMCov(buildSendWaitSM())
}

func (*sendWait) BuildSM(spec *flash.Spec) (*engine.SM, map[string]string) {
	return buildSendWaitSM(), nil
}

// checker-core: begin

// Send-wait SM states.
const (
	stIdle   = "idle"
	stWaitPI = "await_pi"
	stWaitIO = "await_io"
)

func buildSendWaitSM() *engine.SM {
	piPats, ioPats := waitingSendPatterns()
	var piSend, ioSend []engine.Pattern
	for _, e := range piPats {
		piSend = append(piSend, engine.Pattern{Expr: e})
	}
	for _, e := range ioPats {
		ioSend = append(ioSend, engine.Pattern{Expr: e})
	}
	var anySend []engine.Pattern
	for _, e := range sendPatterns() {
		anySend = append(anySend, engine.Pattern{Expr: e})
	}
	piWait := []engine.Pattern{{Stmt: mustStmtPat("WAIT_FOR_PI_REPLY();", nil)}}
	ioWait := []engine.Pattern{{Stmt: mustStmtPat("WAIT_FOR_IO_REPLY();", nil)}}

	sm := &engine.SM{Name: "sendwait", Start: stIdle}
	sm.Rules = []*engine.Rule{
		{State: stIdle, Patterns: piSend, Target: stWaitPI, Tag: "send-wait-pi"},
		{State: stIdle, Patterns: ioSend, Target: stWaitIO, Tag: "send-wait-io"},

		{State: stWaitPI, Patterns: piWait, Target: stIdle, Tag: "wait-pi"},
		{State: stWaitPI, Patterns: ioWait, Target: stIdle, Tag: "wrong-wait",
			Action: func(c *engine.Ctx) {
				c.Report("waiting on IO interface for a PI reply")
			}},
		{State: stWaitPI, Patterns: anySend, Tag: "send-before-wait",
			Action: func(c *engine.Ctx) {
				c.Report("second send before waiting for PI reply")
			}},

		{State: stWaitIO, Patterns: ioWait, Target: stIdle, Tag: "wait-io"},
		{State: stWaitIO, Patterns: piWait, Target: stIdle, Tag: "wrong-wait",
			Action: func(c *engine.Ctx) {
				c.Report("waiting on PI interface for an IO reply")
			}},
		{State: stWaitIO, Patterns: anySend, Tag: "send-before-wait",
			Action: func(c *engine.Ctx) {
				c.Report("second send before waiting for IO reply")
			}},
	}
	sm.AtExit = func(c *engine.Ctx) {
		switch c.State {
		case stWaitPI:
			c.Report("send with wait bit set never waits for PI reply")
		case stWaitIO:
			c.Report("send with wait bit set never waits for IO reply")
		}
	}
	return sm
}

// checker-core: end
