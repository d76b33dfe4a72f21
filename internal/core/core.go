// Package core is the meta-level compilation pipeline: it loads
// protocol-C translation units through the preprocessor, parser, and
// type checker, builds control-flow graphs, and applies compiled
// checkers (metal programs or Go-built state machines) to every
// function — the role xg++ plays in the paper.
//
// Load lexes every translation unit into one token buffer: the parser
// is done with a unit's tokens when it returns the unit's AST, so the
// next unit reuses the storage.
package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"flashmc/internal/cc/ast"
	"flashmc/internal/cc/cpp"
	"flashmc/internal/cc/lexer"
	"flashmc/internal/cc/parser"
	"flashmc/internal/cc/sem"
	"flashmc/internal/cc/token"
	"flashmc/internal/cc/types"
	"flashmc/internal/cfg"
	"flashmc/internal/engine"
	"flashmc/internal/metal"
)

// Program is a loaded, type-checked set of translation units with
// control-flow graphs for every function definition.
type Program struct {
	Name  string
	Files []*ast.File
	// Fns lists all function definitions across files, source order.
	Fns []*ast.FuncDecl
	// Graphs holds one CFG per definition, parallel to Fns.
	Graphs []*cfg.Graph
	// Env is the accumulated symbol environment.
	Env *sem.Env
	// SourceLOC counts non-blank source lines across root files
	// (headers excluded), the paper's Table 1 LOC metric.
	SourceLOC int
	// ParseErrors and Warnings accumulate diagnostics; loading is
	// lenient and continues past recoverable problems.
	ParseErrors []error
	Warnings    []error

	byName map[string]int
	src    cpp.Source
	incs   []string
	fp     fingerprintMemo
}

// fingerprintMemo holds a program's content fingerprints once they are
// computed. The hash itself lives in package sched (the depot's
// addressing scheme); core only stores the result, so every consumer
// of one loaded program — Check and triage — shares a single AST walk.
// Its zero value is ready to use, so programs built as struct literals
// memoize too.
type fingerprintMemo struct {
	once sync.Once
	fns  []string
	prog string
}

// MemoFingerprints returns the program's per-function fingerprints
// (parallel to Fns) and its whole-program fingerprint, running compute
// on the first call only; concurrent first calls wait for that one
// computation. Programs are immutable after loading, so the memo never
// goes stale. Callers must not modify the returned slice.
func (p *Program) MemoFingerprints(compute func(*Program) (fns []string, prog string)) ([]string, string) {
	p.fp.once.Do(func() { p.fp.fns, p.fp.prog = compute(p) })
	return p.fp.fns, p.fp.prog
}

// Load preprocesses, parses, and checks rootFiles (each a separate
// translation unit) from src, sharing typedefs, enum constants and
// globals across units the way a protocol build does.
func Load(name string, src cpp.Source, rootFiles []string, includeDirs ...string) (*Program, error) {
	p := &Program{
		Name:   name,
		Env:    sem.NewEnv(),
		byName: map[string]int{},
		src:    src,
		incs:   includeDirs,
	}
	checker := sem.NewChecker(p.Env)

	// Typedefs and enum constants accumulate across units, as in a
	// protocol build where every unit includes the same headers.
	var carriedTypedefs map[string]types.Type
	// One token buffer serves every unit (see the package doc).
	var toks []token.Token

	for _, rf := range rootFiles {
		pp := cpp.New(src, includeDirs...)
		text := pp.Process(rf)
		for _, e := range pp.Errors() {
			p.ParseErrors = append(p.ParseErrors, e)
		}
		raw, err := src.ReadFile(rf)
		if err == nil {
			p.SourceLOC += countLOC(raw)
		}

		lx := lexer.New(rf, text)
		toks = lx.AppendAll(toks[:0])
		for _, e := range lx.Errors() {
			p.ParseErrors = append(p.ParseErrors, e)
		}
		cparser := parser.New(toks, parser.Config{Typedefs: carriedTypedefs})
		f := cparser.File(rf)
		for _, e := range cparser.Errors() {
			p.ParseErrors = append(p.ParseErrors, e)
		}
		carriedTypedefs = cparser.Typedefs()
		for k, v := range cparser.EnumConsts() {
			p.Env.EnumConsts[k] = v
		}
		checker.Check(f)
		p.Files = append(p.Files, f)
	}
	p.Warnings = checker.Warnings()

	for _, f := range p.Files {
		for _, fn := range f.Funcs() {
			p.byName[fn.Name] = len(p.Fns)
			p.Fns = append(p.Fns, fn)
			p.Graphs = append(p.Graphs, cfg.Build(fn))
		}
	}
	if len(p.Fns) == 0 && len(p.ParseErrors) > 0 {
		return p, fmt.Errorf("%s: no functions parsed (first error: %v)", name, p.ParseErrors[0])
	}
	return p, nil
}

// countLOC counts non-blank lines (the paper's LOC measure excludes
// only header files, which Load never feeds through this path).
func countLOC(src string) int {
	n := 0
	for src != "" {
		var ln string
		ln, src, _ = strings.Cut(src, "\n")
		if strings.TrimSpace(ln) != "" {
			n++
		}
	}
	return n
}

// Graph returns the CFG of the named function, or nil.
func (p *Program) Graph(fn string) *cfg.Graph {
	if i, ok := p.byName[fn]; ok {
		return p.Graphs[i]
	}
	return nil
}

// Fn returns the named function definition, or nil.
func (p *Program) Fn(name string) *ast.FuncDecl {
	if i, ok := p.byName[name]; ok {
		return p.Fns[i]
	}
	return nil
}

// FnNames lists the names of Fns, in order.
func (p *Program) FnNames() []string {
	names := make([]string, len(p.Fns))
	for i, fn := range p.Fns {
		names[i] = fn.Name
	}
	return names
}

// RunSMCov applies a state machine to every function and collects the
// reports in function order, plus the per-function dynamic coverage in
// function order with empty coverages (skipped functions) omitted.
// Functions are independent, so they are checked concurrently, at most
// GOMAXPROCS at a time; the result order is deterministic. Coverage
// counts are single-run facts, so concurrency does not perturb them;
// only ordering could, and the function-order collection fixes that.
func (p *Program) RunSMCov(sm *engine.SM) ([]engine.Report, []*engine.Coverage) {
	perFn := make([][]engine.Report, len(p.Graphs))
	covs := make([]*engine.Coverage, len(p.Graphs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, g := range p.Graphs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, g *cfg.Graph) {
			defer wg.Done()
			defer func() { <-sem }()
			perFn[i], covs[i] = engine.RunCov(g, sm)
		}(i, g)
	}
	wg.Wait()
	var out []engine.Report
	for _, rs := range perFn {
		out = append(out, rs...)
	}
	kept := covs[:0]
	for _, c := range covs {
		if !c.Empty() {
			kept = append(kept, c)
		}
	}
	return out, kept
}

// Count returns the number of sub-expressions matching pat across all
// functions (the tables' "Applied" columns).
func (p *Program) Count(pat ast.Expr) int {
	return engine.Count(p.Fns, pat)
}

// CompileChecker compiles metal source against this program's include
// environment, so prologue #includes resolve to the same headers the
// protocol was built with.
func (p *Program) CompileChecker(src string) (*metal.Program, error) {
	return metal.Compile(src, metal.Options{Include: p.src, IncludeDirs: p.incs})
}
