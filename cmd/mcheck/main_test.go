package main

import (
	"bytes"
	"errors"
	"fmt"
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

// TestUnwritableDepotWarnsOnce: a -cache directory whose every shard
// path is a regular file fails every depot write. The check still
// prints its reports and exits by them, and stderr carries exactly one
// warning line.
func TestUnwritableDepotWarnsOnce(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "clean.c", cleanSrc)
	write(t, dir, "race.c", raceSrc)
	if err := os.Mkdir(filepath.Join(dir, "depot"), 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		write(t, filepath.Join(dir, "depot"), fmt.Sprintf("%02x", i), "")
	}
	for _, tc := range []struct {
		file string
		want int
	}{{"clean.c", 0}, {"race.c", 1}} {
		stdout, stderr, code := mcheck(t, dir, "-flash", "-cache", "depot", tc.file)
		want, _, _ := mcheck(t, dir, "-flash", tc.file)
		if code != tc.want || stdout != want {
			t.Errorf("%s: exit %d, want %d; stdout:\n%s\nwant:\n%s", tc.file, code, tc.want, stdout, want)
		}
		lines := strings.Split(strings.TrimSuffix(stderr, "\n"), "\n")
		if len(lines) != 1 || !strings.HasPrefix(lines[0], "mcheck: warning: ") ||
			!strings.HasSuffix(lines[0], " depot write(s) failed; results were not cached") {
			t.Errorf("%s: stderr is not one warning line:\n%s", tc.file, stderr)
		}
	}
}

// TestEmitThenLink pins the file-based inter-procedural workflow: -emit
// writes every function's summary, and -link merges summary files and
// runs the lane traversal over the naming-convention handlers, printing
// its reports in position order as -flash does. A link error (a
// handler defined twice) is a [lanes] report exactly as -flash prints
// it, counted and reflected in the exit status.
func TestEmitThenLink(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "lanes.c", `#include "flash-includes.h"
void send_reply(void) {
    NI_SEND(1, 0, 0, 0, 0, 0);
}
void h_zeta(void) {
    send_reply();
    send_reply();
}
void h_alpha(void) {
    send_reply();
    NI_SEND(1, 0, 0, 0, 0, 0);
}
void sw_once(void) {
    send_reply();
}
`)
	stdout, stderr, code := mcheck(t, dir, "-emit", "sums.json", "lanes.c")
	if want := "emitted 4 function summaries to sums.json\n"; code != 0 || stdout != want {
		t.Fatalf("-emit: exit %d, stdout %q, want %q\nstderr:\n%s", code, stdout, want, stderr)
	}
	stdout, stderr, code = mcheck(t, dir, "-link", "sums.json")
	want := "lanes.c:3:1: [lanes] handler h_zeta exceeds lane 2 allowance (2 > 1) via h_zeta -> send_reply\n" +
		"lanes.c:11:1: [lanes] handler h_alpha exceeds lane 2 allowance (2 > 1) via h_alpha\n" +
		"linked 4 functions, 3 handlers, 2 report(s)\n"
	if code != 1 || stdout != want {
		t.Fatalf("-link: exit %d, want 1 with\n%s\ngot:\n%s\nstderr:\n%s", code, want, stdout, stderr)
	}

	write(t, dir, "a.c", "void h_foo(void) {}\n")
	write(t, dir, "b.c", "void h_foo(void) {}\n")
	dup := "-: [lanes] duplicate definition of h_foo (kept a.c, dropped b.c)\n"
	if stdout, _, code := mcheck(t, dir, "-flash", "a.c", "b.c"); code != 1 || !strings.Contains(stdout, dup) {
		t.Fatalf("-flash: exit %d, want 1 with %q\nstdout:\n%s", code, dup, stdout)
	}
	if stdout, stderr, code = mcheck(t, dir, "-emit", "dup.json", "a.c", "b.c"); code != 0 {
		t.Fatalf("-emit: exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	stdout, stderr, code = mcheck(t, dir, "-link", "dup.json")
	want = dup + "linked 1 functions, 1 handlers, 1 report(s)\n"
	if code != 1 || stdout != want {
		t.Fatalf("-link duplicate: exit %d, want 1 with\n%s\ngot:\n%s\nstderr:\n%s", code, want, stdout, stderr)
	}

	// Two files whose handler-walk order (h_alpha, h_beta, h_zeta) is
	// not their position order: -link must print file then line order,
	// the same [lanes] lines -flash prints.
	write(t, dir, "one.c", `#include "flash-includes.h"
void h_zeta(void) {
    NI_SEND(1, 0, 0, 0, 0, 0);
    NI_SEND(1, 0, 0, 0, 0, 0);
}
`)
	write(t, dir, "two.c", `#include "flash-includes.h"
void h_beta(void) {
    NI_SEND(1, 0, 0, 0, 0, 0);
    NI_SEND(1, 0, 0, 0, 0, 0);
}
void h_alpha(void) {
    NI_SEND(1, 0, 0, 0, 0, 0);
    NI_SEND(1, 0, 0, 0, 0, 0);
}
`)
	if stdout, stderr, code = mcheck(t, dir, "-emit", "two.json", "two.c", "one.c"); code != 0 {
		t.Fatalf("-emit: exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	stdout, stderr, code = mcheck(t, dir, "-link", "two.json")
	want = "one.c:4:1: [lanes] handler h_zeta exceeds lane 2 allowance (2 > 1) via h_zeta\n" +
		"two.c:4:1: [lanes] handler h_beta exceeds lane 2 allowance (2 > 1) via h_beta\n" +
		"two.c:8:1: [lanes] handler h_alpha exceeds lane 2 allowance (2 > 1) via h_alpha\n" +
		"linked 3 functions, 3 handlers, 3 report(s)\n"
	if code != 1 || stdout != want {
		t.Fatalf("-link two files: exit %d, want 1 with\n%s\ngot:\n%s\nstderr:\n%s", code, want, stdout, stderr)
	}
	flashOut, _, _ := mcheck(t, dir, "-flash", "two.c", "one.c")
	var flashLanes []string
	for _, ln := range strings.Split(flashOut, "\n") {
		if strings.Contains(ln, " [lanes] ") {
			flashLanes = append(flashLanes, ln+"\n")
		}
	}
	if got, link := strings.Join(flashLanes, ""), strings.TrimSuffix(want, "linked 3 functions, 3 handlers, 3 report(s)\n"); got != link {
		t.Fatalf("-flash [lanes] lines differ from -link's:\n%s\nwant:\n%s", got, link)
	}
}
