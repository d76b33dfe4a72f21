package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain doubles as mcheck itself: with MCHECK_RUN_MAIN=1 the test
// binary runs main on the newline-separated MCHECK_ARGS, so the tests
// below can pin exit codes and output end to end.
func TestMain(m *testing.M) {
	if os.Getenv("MCHECK_RUN_MAIN") == "1" {
		os.Args = []string{"mcheck"}
		if args := os.Getenv("MCHECK_ARGS"); args != "" {
			os.Args = append(os.Args, strings.Split(args, "\n")...)
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Fixtures. clean reports nothing under the FLASH suite; race reads
// the MISCBUS data buffer twice but only waits once, and breaks the
// hook discipline and frees nothing besides.
const (
	cleanSrc = `#include "flash-includes.h"
int add(int a, int b) {
    HANDLER_DEFS();
    SUBROUTINE_PROLOGUE();
    return a + b;
}
`
	raceSrc = `#include "flash-includes.h"
void h_local_get(void) {
    unsigned a;
    unsigned b;
    MISCBUS_READ_DB(a, b);
    WAIT_FOR_DB_FULL(a);
    MISCBUS_READ_DB(a, b);
}
`
)

// write writes name under dir with src and returns its path.
func write(t *testing.T, dir, name, src string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// mcheck runs main in a child process from dir and returns its
// stdout, stderr and exit code.
func mcheck(t *testing.T, dir string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "MCHECK_RUN_MAIN=1", "MCHECK_ARGS="+strings.Join(args, "\n"))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return stdout.String(), stderr.String(), code
}

// TestExitCodes: 0 with no reports, 1 with reports, 2 on usage errors.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "clean.c", cleanSrc)
	write(t, dir, "race.c", raceSrc)
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"no reports", []string{"-flash", "clean.c"}, 0},
		{"reports", []string{"-flash", "race.c"}, 1},
		{"-j 0", []string{"-flash", "-j", "0", "clean.c"}, 2},
		{"-triage bogus", []string{"-flash", "-triage", "bogus", "clean.c"}, 2},
		{"no inputs", []string{"-flash"}, 2},
	} {
		stdout, stderr, code := mcheck(t, dir, tc.args...)
		if code != tc.want {
			t.Errorf("%s: exit %d, want %d\nstdout:\n%s\nstderr:\n%s", tc.name, code, tc.want, stdout, stderr)
		}
	}
}

// TestWarmCacheMatchesCold: a second run through one depot prints the
// cold run's stream byte for byte, served from the cache, and -explain
// names the producer of each warm report.
func TestWarmCacheMatchesCold(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "clean.c", cleanSrc)
	write(t, dir, "race.c", raceSrc)
	args := []string{"-flash", "-why", "-cache", "depot", "clean.c", "race.c"}
	cold, _, code := mcheck(t, dir, args...)
	if code != 1 || !strings.Contains(cold, "[wait_for_db]") {
		t.Fatalf("cold: exit %d, want 1 with a wait_for_db report:\n%s", code, cold)
	}
	warm, _, _ := mcheck(t, dir, args...)
	if warm != cold {
		t.Fatalf("warm output differs from cold:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
	_, explain, _ := mcheck(t, dir, append([]string{"-explain"}, args...)...)
	for _, want := range []string{"producer=pid:", "decision=hit"} {
		if !strings.Contains(explain, want) {
			t.Errorf("warm -explain lacks %q:\n%s", want, explain)
		}
	}
}

// TestDuplicateHandlerLinkReport: a handler defined in two files is a
// finding of the lane pass's link, not a failed check.
func TestDuplicateHandlerLinkReport(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "a.c", "void h_foo(void) {}\n")
	write(t, dir, "b.c", "void h_foo(void) {}\n")
	stdout, stderr, code := mcheck(t, dir, "-flash", "a.c", "b.c")
	want := "-: [lanes] duplicate definition of h_foo (kept a.c, dropped b.c)\n"
	if code != 1 || !strings.Contains(stdout, want) {
		t.Fatalf("exit %d, want 1 with %q\nstdout:\n%s\nstderr:\n%s", code, want, stdout, stderr)
	}
}
