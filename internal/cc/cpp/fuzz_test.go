package cpp

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// FuzzPreprocess runs the preprocessor over a fuzzed root file that
// may include two fuzzed headers, a.h and b.h. Whatever the input,
// Process must return (no panic, no hang), every error must be a
// *Error naming a file, and no output line may hold more tokens than
// the input plus one line's expansion budget.
//
//	go test -run FuzzPreprocess -fuzz FuzzPreprocess -fuzztime 15s ./internal/cc/cpp/
func FuzzPreprocess(f *testing.F) {
	for _, s := range [][3]string{
		// Nested #if/#elif/#else with defined, char and hex literals.
		{"#define A 2\n#if defined(A) && A > 1\n#if '\\x41' == 0x41\nint a;\n#elif 1\nint b;\n#else\nint c;\n#endif\n#elif defined B\nint d;\n#endif\n", "", ""},
		{"#if 0 && 1/0\nint a;\n#elif 1 || 1/0\nint b;\n#endif\n#if '\\101' == 65 ? 1 : 0\nint c;\n#endif\n", "", ""},
		// Mutually recursive macros.
		{"#define A B + 1\n#define B A * 2\n#define F(x) G(x, x)\n#define G(x, y) F(y)\nint v = A + F(A);\n", "", ""},
		// Guarded and unguarded include cycles.
		{"#include \"a.h\"\nint x = A + B;\n",
			"#ifndef A_H\n#define A_H\n#include \"b.h\"\n#define A 1\n#endif\n",
			"#ifndef B_H\n#define B_H\n#include \"a.h\"\n#define B 2\n#endif\n"},
		{"#include \"a.h\"\nint x;\n", "#include \"b.h\"\n#include \"b.h\"\n", "#include \"a.h\"\n#include \"a.h\"\n"},
		// A doubling chain.
		{"#include \"a.h\"\nint v = M8;\n#if M8\n#endif\n",
			"#define M0 x\n#define M1 M0 M0\n#define M2 M1 M1\n#define M3 M2 M2\n#define M4 M3 M3\n",
			"#define M5 M4 M4\n#define M6 M5 M5\n#define M7 M6 M6\n#define M8 M7 M7\n"},
		// Malformed directives.
		{"#ifdef\n#endif\n#ifndef 1\n#endif\n#define F(x, x) x\n#if (1\n#endif\n#if 1 2\n#elif\n#else\n#else\n#endif\n#endif\n#elif\n#include\n#include <a.h\n#define\n#define G(x\n#bogus\n", "", ""},
		{"#define S(x) #x\n#define P(a, b) a ## b\nchar *s = S(P(1, 2));\nint P(x, y) = P(, 3);\n", "", ""},
	} {
		f.Add(s[0], s[1], s[2])
	}
	f.Fuzz(func(t *testing.T, root, a, b string) {
		p := New(MapSource{"main.c": root, "a.h": a, "b.h": b})
		done := make(chan string, 1)
		go func() { done <- p.Process("main.c") }()
		var out string
		select {
		case out = <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Process did not return within 10s")
		}
		for _, err := range p.Errors() {
			var e *Error
			if !errors.As(err, &e) || e.File == "" {
				t.Fatalf("error %v (%T) is not a *cpp.Error naming a file", err, err)
			}
		}
		limit := maxExpansion + len(root) + len(a) + len(b)
		for _, line := range strings.Split(out, "\n") {
			if n := len(scanAll(line)); n > limit {
				t.Fatalf("output line of %d tokens exceeds %d", n, limit)
			}
		}
	})
}
