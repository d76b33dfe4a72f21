// metalint is the static-analysis suite for metal checkers: it
// analyzes the analyses. The paper's §11 "betrayal incident" — a
// hand-inserted INC_DB_REF that silently blinded the buffer checker —
// is the motivating failure: a broken checker looks exactly like a
// clean run. metalint makes that failure loud.
//
// Usage:
//
//	metalint [-I dir]... [-c file.c]... [-flash] [-triage[=slice|sym]] [-v] checker.metal...
//
// Each checker.metal argument is compiled and run through the SM lint
// passes: unreachable states, shadowed/overlapping rules, unused
// wildcard declarations, dead patterns outside the FLASH protocol
// vocabulary, and absorbing states. -flash lints the built-in checker
// suite the same way.
//
// With -c, protocol-C sources are loaded: their function names extend
// the pattern vocabulary, each function's CFG is scanned for repeated
// non-identifier branch conditions the engine's correlated-branch
// pruner cannot see (its key-space bound), and -triage additionally
// runs every linted checker over the program and prints each report
// with a confidence from the feasibility replay: 'slice' ranks
// certain / likely-fp from path slicing alone, 'sym' adds the bounded
// symbolic evaluator, which can prove firing paths unsatisfiable and
// demote their reports to infeasible. Bare -triage keeps its
// pre-sym meaning: slice mode.
//
// Exit status: 2 on usage errors, 1 if any Error-severity finding (or
// any certain report under -triage) was produced, 0 otherwise.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"flashmc/internal/cc/cpp"
	"flashmc/internal/checkers"
	"flashmc/internal/core"
	"flashmc/internal/engine"
	"flashmc/internal/flash"
	"flashmc/internal/lint"
	"flashmc/internal/metal"
)

type stringList []string

func (s *stringList) String() string     { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

// triageValue keeps -triage working both ways: it started life as a
// bool flag (bare -triage ran the slicing replay), so it must parse
// with no value, while -triage=sym selects the symbolic rung. The
// bool-flag form means the value cannot be space-separated: it is
// -triage=sym, not -triage sym.
type triageValue struct {
	mode lint.TriageMode
	on   bool
}

func (t *triageValue) String() string   { return string(t.mode) }
func (t *triageValue) IsBoolFlag() bool { return true }

func (t *triageValue) Set(v string) error {
	switch v {
	case "true", "": // bare -triage: the original slice-mode replay
		t.mode, t.on = lint.ModeSlice, true
	case "false":
		t.mode, t.on = "", false
	case "slice":
		t.mode, t.on = lint.ModeSlice, true
	case "sym":
		t.mode, t.on = lint.ModeSym, true
	default:
		return fmt.Errorf("want 'slice' or 'sym'")
	}
	return nil
}

func main() {
	var includes, cFiles stringList
	flag.Var(&includes, "I", "include search directory (repeatable)")
	flag.Var(&cFiles, "c", "protocol-C source to load (repeatable)")
	flashSuite := flag.Bool("flash", false, "lint the built-in FLASH checker suite")
	var triage triageValue
	flag.Var(&triage, "triage", "run linted checkers over -c sources and rank each report: bare or =slice for slicing, =sym adds the symbolic evaluator")
	verbose := flag.Bool("v", false, "print Info-level findings too")
	flag.Parse()

	metalFiles := flag.Args()
	if len(metalFiles) == 0 && !*flashSuite && len(cFiles) == 0 {
		fmt.Fprintln(os.Stderr, "metalint: nothing to lint (give checker.metal files, -flash, or -c sources)")
		flag.Usage()
		os.Exit(2)
	}

	vocab := lint.FlashVocab()
	var prog *core.Program
	if len(cFiles) > 0 {
		var err error
		prog, err = core.Load("metalint", cpp.Layered(cpp.OSSource{}, flash.HeaderSource()), cFiles, includes...)
		if err != nil {
			fail("load: %v", err)
		}
		for _, e := range prog.ParseErrors {
			fmt.Fprintf(os.Stderr, "metalint: %v\n", e)
		}
		if len(prog.ParseErrors) > 0 {
			os.Exit(1)
		}
		for _, fn := range prog.Fns {
			vocab.Add(fn.Name)
		}
	}

	errors := 0
	emit := func(scope string, diags []lint.Diag) {
		for _, d := range diags {
			if d.Severity == lint.Info && !*verbose {
				continue
			}
			fmt.Printf("%s: %s\n", scope, d)
		}
		errors += len(lint.Errors(diags))
	}

	// One linted SM per source, kept for -triage.
	type target struct {
		name string
		sm   *engine.SM
	}
	var targets []target

	for _, mf := range metalFiles {
		src, err := os.ReadFile(mf)
		if err != nil {
			fail("%v", err)
		}
		mp, err := metal.Compile(string(src), metal.Options{
			Include: cpp.Layered(cpp.OSSource{}, flash.HeaderSource()), IncludeDirs: includes,
		})
		if err != nil {
			fail("%s: %v", mf, err)
		}
		emit(mf, lint.CheckMetal(mp, vocab))
		targets = append(targets, target{name: mp.Name, sm: mp.SM})
	}

	var spec *flash.Spec
	if *flashSuite {
		// With no loaded program the spec is empty, which still lints
		// the suite's built-in rule sets.
		var names []string
		if prog != nil {
			names = prog.FnNames()
		}
		spec = flash.ConventionSpec(names)
		for _, chk := range checkers.All() {
			prov, ok := chk.(checkers.SMProvider)
			if !ok {
				continue // global pass, no SM
			}
			sm, decls := prov.BuildSM(spec)
			emit(chk.Name(), lint.CheckSM(lint.Target{SM: sm, Decls: decls, Vocab: vocab}))
			targets = append(targets, target{name: chk.Name(), sm: sm})
		}
	}

	if prog != nil {
		for _, g := range prog.Graphs {
			emit(g.Fn.Name, lint.CheckGraph(g))
		}
	}

	certain := 0
	if triage.on {
		if prog == nil {
			fail("-triage needs -c sources to run the checkers over")
		}
		for _, t := range targets {
			reports, _ := prog.RunSMCov(t.sm)
			ranked := lint.TriageProgram(prog, t.sm, reports, lint.TriageOptions{Mode: triage.mode})
			lint.SortRanked(ranked)
			for _, rr := range ranked {
				fmt.Printf("%s: [%s] %s (%s: %s)\n", rr.Pos, t.name, rr.Msg, rr.Confidence, rr.Reason)
				if rr.Confidence == lint.Certain {
					certain++
				}
			}
		}
	}

	if errors > 0 || certain > 0 {
		os.Exit(1)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "metalint: "+format+"\n", args...)
	os.Exit(1)
}
