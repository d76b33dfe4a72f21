package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain doubles as protostat itself: with PROTOSTAT_RUN_MAIN=1 the
// test binary runs main on the newline-separated PROTOSTAT_ARGS.
func TestMain(m *testing.M) {
	if os.Getenv("PROTOSTAT_RUN_MAIN") == "1" {
		os.Args = []string{"protostat"}
		if args := os.Getenv("PROTOSTAT_ARGS"); args != "" {
			os.Args = append(os.Args, strings.Split(args, "\n")...)
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestExitCodes: file mode measures and exits 0, printing the header
// and one row; no inputs and the removed corpus mode (paperbench prints
// corpus Table 1) are usage errors, exit 2, with nothing on stdout.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	src := "int f(int a) {\n    if (a)\n        return 1;\n    return 0;\n}\n"
	if err := os.WriteFile(filepath.Join(dir, "f.c"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		args  []string
		want  int
		lines int // stdout lines
	}{
		{"file", []string{"f.c"}, 0, 2},
		{"no inputs", nil, 2, 0},
		{"-corpus (removed)", []string{"-corpus"}, 2, 0},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "PROTOSTAT_RUN_MAIN=1", "PROTOSTAT_ARGS="+strings.Join(tc.args, "\n"))
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		code := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		if code != tc.want {
			t.Errorf("%s: exit %d, want %d\n%s%s", tc.name, code, tc.want, stdout.String(), stderr.String())
		}
		if got := strings.Count(stdout.String(), "\n"); got != tc.lines {
			t.Errorf("%s: %d stdout lines, want %d:\n%s", tc.name, got, tc.lines, stdout.String())
		}
	}
}
