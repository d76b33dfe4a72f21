package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"flashmc/internal/depot"
	"flashmc/internal/obs"
)

// TestRequestTraceServed: a /check reuses the caller's X-Request-Id as
// its trace id, and /debug/trace/<id> serves a valid Chrome trace with
// spans on a process named mcheckd; unknown ids 404.
func TestRequestTraceServed(t *testing.T) {
	store, err := depot.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(store, 2))
	defer ts.Close()

	body := `{"files": {"proto.c": ` + mustQuote(fixture) + `}}`
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/check", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "req-trace-local")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /check: %s\n%s", resp.Status, raw)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "req-trace-local" {
		t.Fatalf("X-Request-Id = %q, want the caller's id echoed", got)
	}
	traceID := resp.Header.Get("X-Trace-Id")
	if traceID != "req-trace-local" {
		t.Fatalf("X-Trace-Id = %q, want req-trace-local", traceID)
	}

	traw := get(t, ts.URL+"/debug/trace/"+traceID)
	stats, err := obs.ValidateTraceStats(bytes.NewReader(traw))
	if err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	named := false
	for _, p := range stats.Processes {
		if p.Name == "mcheckd" && p.Spans >= 1 {
			named = true
		}
	}
	if !named {
		t.Fatalf("no mcheckd process with spans in trace: %+v", stats.Processes)
	}

	nf, err := http.Get(ts.URL + "/debug/trace/no-such-id")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, nf.Body)
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /debug/trace/no-such-id: %s, want 404", nf.Status)
	}
}
