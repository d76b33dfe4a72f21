// mcheckclient is a small CLI client for mcheckd, used by scripts and
// the CI daemon gates: it posts source files to /check and prints the
// ranked reports (stats omitted — they differ run to run), or fetches
// an arbitrary path, or polls /healthz until a daemon is ready. The
// printed reports are stable across runs, so two runs compare with
// diff. Files are posted under their base names, so two inputs with
// one base name (a/x.c b/x.c) are refused with exit status 2.
//
// Usage:
//
//	mcheckclient -addr host:port file.c...   POST /check, print reports
//	mcheckclient -addr host:port -get /metrics
//	mcheckclient -addr host:port -wait 10s   poll /healthz until 200
//	mcheckclient -addr host:port -trace FILE file.c...
//	             also fetch the request's Chrome trace (from
//	             /debug/trace/<X-Trace-Id>) into FILE
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// errDupName marks two input paths that share a base name.
var errDupName = errors.New("duplicate file name")

// readFiles reads each path into the /check files map, keyed by base
// name: the daemon sees one flat directory. Two paths with one base
// name would collapse into a single file, so they are an error that
// names both.
func readFiles(paths []string) (map[string]string, error) {
	files := map[string]string{}
	from := map[string]string{}
	for _, path := range paths {
		name := filepath.Base(path)
		if prev, dup := from[name]; dup {
			return nil, fmt.Errorf("%w %q: %s and %s", errDupName, name, prev, path)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		files[name] = string(raw)
		from[name] = path
	}
	return files, nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8181", "mcheckd address (host:port)")
	get := flag.String("get", "", "GET this path and print the body instead of posting a check")
	wait := flag.Duration("wait", 0, "poll /healthz until it answers 200 (or this long elapses)")
	triageMode := flag.String("triage", "", "triage_mode for /check (\"slice\" or \"sym\")")
	traceOut := flag.String("trace", "", "after /check, fetch the request's trace into this file")
	flag.Parse()

	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimSuffix(base, "/")

	if *wait > 0 {
		deadline := time.Now().Add(*wait)
		for {
			resp, err := http.Get(base + "/healthz")
			if resp != nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			if err == nil && resp.StatusCode == http.StatusOK {
				break
			}
			if time.Now().After(deadline) {
				fmt.Fprintf(os.Stderr, "mcheckclient: %s/healthz not ready after %s\n", base, *wait)
				os.Exit(1)
			}
			time.Sleep(50 * time.Millisecond)
		}
		if *get == "" && flag.NArg() == 0 {
			return
		}
	}

	if *get != "" {
		resp, err := http.Get(base + *get)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcheckclient: %v\n", err)
			os.Exit(1)
		}
		defer resp.Body.Close()
		io.Copy(os.Stdout, resp.Body)
		if resp.StatusCode != http.StatusOK {
			os.Exit(1)
		}
		return
	}

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "mcheckclient: no input files (and no -get/-wait)")
		os.Exit(2)
	}
	files, err := readFiles(flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcheckclient: %v\n", err)
		if errors.Is(err, errDupName) {
			os.Exit(2)
		}
		os.Exit(1)
	}
	body, _ := json.Marshal(map[string]any{"files": files, "triage_mode": *triageMode})
	resp, err := http.Post(base+"/check", "application/json", bytes.NewReader(body))
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcheckclient: %v\n", err)
		os.Exit(1)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcheckclient: %v\n", err)
		os.Exit(1)
	}
	if resp.StatusCode != http.StatusOK {
		os.Stderr.Write(raw)
		os.Exit(1)
	}
	// Print only the reports: stats vary between servers and runs, so
	// scripts comparing two daemons' (or a cold and a warm run's)
	// output diff this.
	var parsed struct {
		Reports json.RawMessage `json:"reports"`
	}
	if err := json.Unmarshal(raw, &parsed); err != nil {
		fmt.Fprintf(os.Stderr, "mcheckclient: bad response: %v\n", err)
		os.Exit(1)
	}
	var pretty bytes.Buffer
	json.Indent(&pretty, parsed.Reports, "", "  ")
	pretty.WriteByte('\n')
	os.Stdout.Write(pretty.Bytes())

	if *traceOut != "" {
		// X-Trace-Id names the computation's trace even when this
		// request shared another request's in-flight work; fall back to
		// our own request id.
		id := resp.Header.Get("X-Trace-Id")
		if id == "" {
			id = resp.Header.Get("X-Request-Id")
		}
		if id == "" {
			fmt.Fprintln(os.Stderr, "mcheckclient: server sent no X-Trace-Id/X-Request-Id; cannot fetch trace")
			os.Exit(1)
		}
		tresp, err := http.Get(base + "/debug/trace/" + id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcheckclient: trace: %v\n", err)
			os.Exit(1)
		}
		defer tresp.Body.Close()
		traw, err := io.ReadAll(tresp.Body)
		if err != nil || tresp.StatusCode != http.StatusOK {
			fmt.Fprintf(os.Stderr, "mcheckclient: trace %s: status %d %s\n", id, tresp.StatusCode, traw)
			os.Exit(1)
		}
		if err := os.WriteFile(*traceOut, traw, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "mcheckclient: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "mcheckclient: trace %s written to %s\n", id, *traceOut)
	}
}
