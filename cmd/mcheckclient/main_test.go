package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree writes each relative path under dir with its own path as
// contents and returns the absolute paths in order.
func writeTree(t *testing.T, dir string, rels ...string) []string {
	t.Helper()
	var out []string
	for _, rel := range rels {
		p := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(rel), 0o644); err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

func TestReadFilesKeysByBaseName(t *testing.T) {
	paths := writeTree(t, t.TempDir(), "a/x.c", "b/y.c")
	files, err := readFiles(paths)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 || files["x.c"] != "a/x.c" || files["y.c"] != "b/y.c" {
		t.Fatalf("files = %v", files)
	}
}

// TestReadFilesRejectsDuplicateBaseNames: a/x.c and b/x.c would both
// post as x.c, so one would silently go unchecked. The error names
// both paths.
func TestReadFilesRejectsDuplicateBaseNames(t *testing.T) {
	paths := writeTree(t, t.TempDir(), "a/x.c", "b/y.c", "b/x.c")
	_, err := readFiles(paths)
	if !errors.Is(err, errDupName) {
		t.Fatalf("err = %v, want errDupName", err)
	}
	for _, p := range []string{paths[0], paths[2]} {
		if !strings.Contains(err.Error(), p) {
			t.Errorf("error %q does not name %s", err, p)
		}
	}
}

func TestReadFilesMissingFile(t *testing.T) {
	_, err := readFiles([]string{filepath.Join(t.TempDir(), "nope.c")})
	if err == nil || errors.Is(err, errDupName) {
		t.Fatalf("err = %v, want a read error", err)
	}
}

// TestDuplicateBaseNamesExitTwo runs the client itself: duplicate base
// names are a usage error (exit 2), reported before any request.
func TestDuplicateBaseNamesExitTwo(t *testing.T) {
	if os.Getenv("MCHECKCLIENT_RUN_MAIN") == "1" {
		os.Args = append([]string{"mcheckclient", "-addr", "127.0.0.1:1"}, strings.Fields(os.Getenv("MCHECKCLIENT_ARGS"))...)
		main()
		return
	}
	paths := writeTree(t, t.TempDir(), "a/x.c", "b/x.c")
	cmd := exec.Command(os.Args[0], "-test.run=^TestDuplicateBaseNamesExitTwo$")
	cmd.Env = append(os.Environ(), "MCHECKCLIENT_RUN_MAIN=1", "MCHECKCLIENT_ARGS="+strings.Join(paths, " "))
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit = %v, want 2\n%s", err, out)
	}
	if !strings.Contains(string(out), paths[0]) || !strings.Contains(string(out), paths[1]) {
		t.Fatalf("stderr does not name both paths:\n%s", out)
	}
}
