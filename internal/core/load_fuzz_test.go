package core_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"flashmc/internal/cc/cpp"
	"flashmc/internal/cc/lexer"
	"flashmc/internal/cc/parser"
	"flashmc/internal/cc/sem"
	"flashmc/internal/cc/types"
	"flashmc/internal/core"
	"flashmc/internal/flash"
	"flashmc/internal/flashgen"
	"flashmc/internal/sched"
)

// loadOracle is core.Load's frontend with a fresh token slice per unit
// (lexer.All), the reference for Load's one reused buffer. It fills the
// exported fields the comparison reads; fingerprints memoize on a
// struct literal.
func loadOracle(name string, src cpp.Source, rootFiles []string) *core.Program {
	p := &core.Program{Name: name, Env: sem.NewEnv()}
	checker := sem.NewChecker(p.Env)
	var carried map[string]types.Type
	for _, rf := range rootFiles {
		pp := cpp.New(src)
		text := pp.Process(rf)
		p.ParseErrors = append(p.ParseErrors, pp.Errors()...)
		lx := lexer.New(rf, text)
		toks := lx.All()
		p.ParseErrors = append(p.ParseErrors, lx.Errors()...)
		cp := parser.New(toks, parser.Config{Typedefs: carried})
		f := cp.File(rf)
		p.ParseErrors = append(p.ParseErrors, cp.Errors()...)
		carried = cp.Typedefs()
		for k, v := range cp.EnumConsts() {
			p.Env.EnumConsts[k] = v
		}
		checker.Check(f)
		p.Files = append(p.Files, f)
	}
	p.Warnings = checker.Warnings()
	for _, f := range p.Files {
		p.Fns = append(p.Fns, f.Funcs()...)
	}
	return p
}

// seedLines holds the lines of every root file of the seed-1 flashgen
// protocols, the material FuzzLoadUnits cuts its units from.
var seedLines = sync.OnceValue(func() [][]string {
	var out [][]string
	for _, proto := range flashgen.Generate(flashgen.Options{Seed: 1}).Protocols {
		for _, rf := range proto.RootFiles {
			out = append(out, strings.SplitAfter(proto.Files[rf], "\n"))
		}
	}
	return out
})

// fuzzUnits builds 2–5 root files from layout and edits. Each unit is
// a window of a seed-1 root file behind the flash header's #include:
// three layout bytes pick the file, the window's first line and its
// length (255 is the whole rest of the file), so consecutive units grow
// and shrink the token buffer in a fuzzed order. Then every four edit
// bytes overwrite one byte of one unit.
func fuzzUnits(layout, edits []byte) (cpp.MapSource, []string) {
	at := func(i int) int {
		if i < len(layout) {
			return int(layout[i])
		}
		return 0
	}
	files := seedLines()
	n := 2 + at(0)%4
	texts := make([][]byte, n)
	for u := range texts {
		lines := files[at(1+3*u)%len(files)]
		start := at(2+3*u) * len(lines) / 256
		end := min(len(lines), start+1+at(3+3*u)*len(lines)/255)
		texts[u] = []byte("#include \"flash-includes.h\"\n" + strings.Join(lines[start:end], ""))
	}
	for i := 0; i+3 < len(edits) && i < 4*64; i += 4 {
		text := texts[int(edits[i])%n]
		text[(int(edits[i+1])<<8|int(edits[i+2]))%len(text)] = edits[i+3]
	}
	src := cpp.MapSource{"flash-includes.h": flash.IncludesH}
	roots := make([]string, n)
	for u, text := range texts {
		roots[u] = fmt.Sprintf("u%d.c", u)
		src[roots[u]] = string(text)
	}
	return src, roots
}

func errorTexts(errs []error) []string {
	out := make([]string, len(errs))
	for i, e := range errs {
		out[i] = e.Error()
	}
	return out
}

// FuzzLoadUnits: Load lexing every unit into one reused token buffer
// must load exactly what lexing each unit into its own slice does —
// the same diagnostics and the same AST, down to every node and
// position, as the per-function and whole-program fingerprints see it.
func FuzzLoadUnits(f *testing.F) {
	// Whole files, large then small then large again.
	f.Add([]byte{3, 0, 0, 255, 6, 0, 255, 1, 0, 255, 13, 128, 255}, []byte{})
	// Short windows that cut functions apart.
	f.Add([]byte{2, 4, 30, 10, 9, 200, 3, 20, 60, 40}, []byte{})
	// Edits: an unterminated string, a stray directive, an unbalanced
	// brace and a control byte.
	f.Add([]byte{1, 0, 0, 255, 2, 0, 255, 5, 90, 100}, []byte{
		0, 1, 40, '"', 1, 0, 30, '#', 2, 2, 0, '{', 0, 0, 90, 0,
	})
	f.Fuzz(func(t *testing.T, layout, edits []byte) {
		src, roots := fuzzUnits(layout, edits)
		got, gotErr := core.Load("fuzz", src, roots)
		want := loadOracle("fuzz", src, roots)
		if wantErr := len(want.Fns) == 0 && len(want.ParseErrors) > 0; (gotErr != nil) != wantErr {
			t.Errorf("Load error %v, want one: %v", gotErr, wantErr)
		}
		if g, w := errorTexts(got.ParseErrors), errorTexts(want.ParseErrors); !reflect.DeepEqual(g, w) {
			t.Fatalf("parse errors:\n got %q\nwant %q", g, w)
		}
		if g, w := errorTexts(got.Warnings), errorTexts(want.Warnings); !reflect.DeepEqual(g, w) {
			t.Fatalf("warnings:\n got %q\nwant %q", g, w)
		}
		if g, w := sched.Fingerprints(got), sched.Fingerprints(want); !reflect.DeepEqual(g, w) {
			t.Fatalf("function fingerprints differ: %d functions, want %d", len(g), len(w))
		}
		if g, w := sched.ProgramFingerprintOf(got), sched.ProgramFingerprintOf(want); g != w {
			t.Fatalf("program fingerprint %s, want %s", g, w)
		}
	})
}
