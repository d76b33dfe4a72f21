// Package flashmc is a meta-level compilation (MC) toolkit: it lets
// system implementors write small, system-specific checkers — as metal
// state-machine programs or as Go rule sets — and apply them down every
// path of C systems code, reproducing "Using Meta-level Compilation to
// Check FLASH Protocol Code" (Chou, Chelf, Engler, Heinrich —
// ASPLOS 2000).
//
// The package is a facade over the implementation packages:
//
//	cc/*      protocol-C frontend (preprocessor, parser, types)
//	cfg,paths control-flow graphs and path statistics
//	metal     the checker DSL (Figures 2 and 3 of the paper compile
//	          and run verbatim)
//	engine    state-machine execution down every path
//	checkers  the paper's eight FLASH checkers
//	flashgen  the synthetic FLASH protocol corpus + ground truth
//	flashsim  the FlashLite-style dynamic simulator
//	paper     table-by-table reproduction drivers
//
// Quick start:
//
//	prog, _ := flashmc.LoadFiles("demo", files, []string{"main.c"})
//	reports, _ := flashmc.RunMetal(prog, checkerSource)
//	for _, r := range reports {
//	    fmt.Println(r)
//	}
package flashmc

import (
	"fmt"

	"flashmc/internal/cc/cpp"
	"flashmc/internal/checkers"
	"flashmc/internal/core"
	"flashmc/internal/engine"
	"flashmc/internal/flash"
	"flashmc/internal/flashgen"
	"flashmc/internal/flashsim"
	"flashmc/internal/metal"
	"flashmc/internal/paper"
)

// Program is a loaded, type-checked set of C translation units with
// control-flow graphs (see internal/core).
type Program = core.Program

// Report is one checker diagnostic.
type Report = engine.Report

// Checker is one system-rule checker (see internal/checkers).
type Checker = checkers.Checker

// Spec is a FLASH protocol specification: handler inventory, lane
// allowances, and the buffer-behaviour tables checkers consult.
type Spec = flash.Spec

// MetalProgram is a compiled metal checker.
type MetalProgram = metal.Program

// Corpus is the generated FLASH protocol code base with its
// ground-truth manifest.
type Corpus = flashgen.Corpus

// FuzzResult is a dynamic-testing campaign summary.
type FuzzResult = flashsim.FuzzResult

// LoadFiles loads a program from an in-memory file set. roots are the
// translation units to compile; include files are resolved against the
// same map.
func LoadFiles(name string, files map[string]string, roots []string) (*Program, error) {
	return core.Load(name, cpp.MapSource(files), roots)
}

// LoadDir loads a program whose translation units live on disk under
// dir.
func LoadDir(name, dir string, roots []string, includeDirs ...string) (*Program, error) {
	return core.Load(name, cpp.OSSource{Dir: dir}, roots, includeDirs...)
}

// CompileMetal compiles metal checker source. The includes map (may be
// nil) resolves the prologue's #include directives; pass
// FlashHeader() to compile checkers against the FLASH environment.
func CompileMetal(src string, includes map[string]string) (*MetalProgram, error) {
	var opts metal.Options
	if includes != nil {
		opts.Include = cpp.MapSource(includes)
	}
	return metal.Compile(src, opts)
}

// RunMetal compiles a metal checker and applies it to every function
// of the program.
func RunMetal(prog *Program, metalSrc string) ([]Report, error) {
	mp, err := prog.CompileChecker(metalSrc)
	if err != nil {
		return nil, fmt.Errorf("compile checker: %w", err)
	}
	reports, _ := prog.RunSMCov(mp.SM)
	return reports, nil
}

// FlashHeader returns the flash-includes.h programming environment as
// a file map usable with LoadFiles and CompileMetal.
func FlashHeader() map[string]string {
	return map[string]string{"flash-includes.h": flash.IncludesH}
}

// FlashCheckers returns the paper's eight checkers (plus the no-float
// sub-checker) in Table 7 order.
func FlashCheckers() []Checker { return checkers.All() }

// GenerateCorpus synthesizes the five FLASH protocols plus common code
// with the paper's seeded defect distribution.
func GenerateCorpus(seed int64) *Corpus {
	return flashgen.Generate(flashgen.Options{Seed: seed})
}

// Fuzz runs the dynamic simulator over every dispatchable handler of a
// loaded protocol for the given number of randomized trials each.
func Fuzz(prog *Program, spec *Spec, trials int, seed int64) *FuzzResult {
	return flashsim.Fuzz(prog, spec, trials, seed)
}

// Reproduction gives access to the table-by-table evaluation drivers.
type Reproduction = paper.Corpus

// LoadReproduction generates and loads the corpus for reproducing the
// paper's tables (see internal/paper).
func LoadReproduction(seed int64) (*Reproduction, error) {
	return paper.LoadCorpus(flashgen.Options{Seed: seed})
}
