package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flashmc/internal/depot"
	"flashmc/internal/obs"
)

// fixture has one hardware handler that reads the MISCBUS data buffer
// twice but only waits once: exactly one buffer_race report.
const fixture = `#include "flash-includes.h"
void h_local_get(void) {
    unsigned a;
    unsigned b;
    MISCBUS_READ_DB(a, b);
    WAIT_FOR_DB_FULL(a);
    MISCBUS_READ_DB(a, b);
}
`

func postCheck(t *testing.T, ts *httptest.Server, body string) (checkResponse, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/check", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /check: %s\n%s", resp.Status, raw)
	}
	var cr checkResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatalf("bad response JSON: %v\n%s", err, raw)
	}
	return cr, raw
}

// TestHealthzDegradedWhenDepotGone: /healthz is a readiness probe —
// 200 while the depot root exists, 503 "degraded" naming the depot
// error once it is removed, so a load balancer drains the daemon.
func TestHealthzDegradedWhenDepotGone(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "depot")
	store, err := depot.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(store, 1))
	defer ts.Close()

	health := func() (int, healthResponse) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var hr healthResponse
		if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, hr
	}
	if code, hr := health(); code != http.StatusOK || hr.Status != "ok" {
		t.Fatalf("live depot: %d %+v", code, hr)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	code, hr := health()
	if code != http.StatusServiceUnavailable || hr.Status != "degraded" || hr.Depot == "ok" {
		t.Fatalf("removed depot: %d %+v, want 503 degraded", code, hr)
	}
}

func TestServerEndToEnd(t *testing.T) {
	store, err := depot.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(store, 2))
	defer ts.Close()

	body := `{"files": {"proto.c": ` + mustQuote(fixture) + `}, "triage_mode": "slice"}`

	// Cold: the report is found and everything misses the cache.
	cold, coldRaw := postCheck(t, ts, body)
	// The buffer_race checker runs the wait_for_db machine; reports
	// carry the machine name, as in mcheck's output.
	var race []reportJSON
	for _, r := range cold.Reports {
		if r.Checker == "wait_for_db" {
			race = append(race, r)
		}
	}
	if len(race) != 1 {
		t.Fatalf("want 1 wait_for_db report, got %d\n%s", len(race), coldRaw)
	}
	if race[0].Fn != "h_local_get" || race[0].Line == 0 {
		t.Fatalf("report lacks location: %+v", race[0])
	}
	if race[0].Confidence == "" {
		t.Fatalf("triage requested but report unranked: %+v", race[0])
	}
	if cold.Stats.CacheMisses == 0 || cold.Stats.CacheHits != 0 {
		t.Fatalf("cold stats: %+v", cold.Stats)
	}

	// Warm: identical request, zero misses, byte-identical reports.
	warm, warmRaw := postCheck(t, ts, body)
	if warm.Stats.CacheMisses != 0 {
		t.Fatalf("warm run missed %d times (reanalyzed %v)", warm.Stats.CacheMisses, warm.Stats.Reanalyzed)
	}
	if warm.Stats.CacheHits == 0 {
		t.Fatal("warm run recorded no hits")
	}
	coldReports, _ := json.Marshal(cold.Reports)
	warmReports, _ := json.Marshal(warm.Reports)
	if !bytes.Equal(coldReports, warmReports) {
		t.Fatalf("warm reports differ:\ncold %s\nwarm %s", coldRaw, warmRaw)
	}

	// Healthz.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", hr.Status)
	}

	// Metrics reflect the two requests. Cache traffic is asserted
	// against sched_cache_decisions_total in
	// TestCacheDecisionsMatchMetrics.
	metrics := scrapeMetrics(t, ts)
	for _, want := range []string{
		"mcheckd_requests_total 2",
		"# TYPE mcheckd_request_seconds_total counter",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// decisionCounts scrapes /metrics and returns
// sched_cache_decisions_total by reason.
func decisionCounts(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	fams, err := obs.ParsePrometheus(strings.NewReader(scrapeMetrics(t, ts)))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	if f := fams["sched_cache_decisions_total"]; f != nil {
		for _, smp := range f.Samples {
			out[smp.Labels["reason"]] = smp.Value
		}
	}
	return out
}

// TestCacheDecisionsMatchMetrics: a /check response's
// stats.decisions and the process-wide sched_cache_decisions_total
// are one fact on two surfaces. On a cold and then a warm request,
// each reason's response count must equal that reason's counter
// delta, and no reason may move on one surface only. The daemon
// exports no copy of these counts (mcheckd_cache_*,
// mcheckd_tasks_total, mcheckd_task_seconds_total).
func TestCacheDecisionsMatchMetrics(t *testing.T) {
	store, err := depot.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(store, 2))
	defer ts.Close()

	body := `{"files": {"proto.c": ` + mustQuote(fixture) + `}}`
	for _, run := range []string{"cold", "warm"} {
		before := decisionCounts(t, ts)
		cr, _ := postCheck(t, ts, body)
		after := decisionCounts(t, ts)
		if len(cr.Stats.Decisions) == 0 {
			t.Fatalf("%s: response has no stats.decisions", run)
		}
		reasons := map[string]bool{}
		for r := range cr.Stats.Decisions {
			reasons[r] = true
		}
		for r := range after {
			reasons[r] = true
		}
		for r := range reasons {
			if got, want := after[r]-before[r], float64(cr.Stats.Decisions[r]); got != want {
				t.Errorf("%s: reason %q: sched_cache_decisions_total advanced by %v, stats.decisions says %v",
					run, r, got, want)
			}
		}
		wantReason := map[string]string{"cold": "new", "warm": "hit"}[run]
		if cr.Stats.Decisions[wantReason] == 0 {
			t.Errorf("%s: stats.decisions %v has no %q", run, cr.Stats.Decisions, wantReason)
		}
	}

	metrics := scrapeMetrics(t, ts)
	for _, gone := range []string{"mcheckd_tasks_total", "mcheckd_task_seconds_total", "mcheckd_cache_", "mcheckd_queue_depth_max"} {
		if strings.Contains(metrics, gone) {
			t.Errorf("/metrics still exports %s*", gone)
		}
	}
}

// TestWarmChecksDoNotGrowDepot: a warm /check is all depot reads, so
// repeating it must not grow a long-lived daemon's in-memory depot.
// Nothing evicts from an in-memory depot without a byte budget, so any
// per-request write would leak for the life of the process.
func TestWarmChecksDoNotGrowDepot(t *testing.T) {
	store, err := depot.Open("")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(store, 2))
	defer ts.Close()

	body := `{"files": {"proto.c": ` + mustQuote(symFixture) + `}, "triage_mode": "sym"}`
	postCheck(t, ts, body)
	before := store.Stats()
	for i := 0; i < 10; i++ {
		warm, _ := postCheck(t, ts, body)
		if warm.Stats.CacheMisses != 0 {
			t.Fatalf("warm check %d missed %d times", i, warm.Stats.CacheMisses)
		}
	}
	if after := store.Stats(); after.Entries != before.Entries || after.Bytes != before.Bytes {
		t.Fatalf("10 warm checks grew the depot: %d entries/%d bytes -> %d entries/%d bytes",
			before.Entries, before.Bytes, after.Entries, after.Bytes)
	}
}

// TestDuplicateHandlerIsReported: a handler defined in two files is a
// finding (the lane pass's link report), not a failed check.
func TestDuplicateHandlerIsReported(t *testing.T) {
	store, _ := depot.Open("")
	ts := httptest.NewServer(newServer(store, 2))
	defer ts.Close()

	dup := mustQuote("void h_foo(void) {}\n")
	cr, raw := postCheck(t, ts, `{"files": {"a.c": `+dup+`, "b.c": `+dup+`}}`)
	for _, r := range cr.Reports {
		if r.Checker == "lanes" && r.Rule == "link" &&
			r.Msg == "duplicate definition of h_foo (kept a.c, dropped b.c)" {
			return
		}
	}
	t.Fatalf("no duplicate-definition link report:\n%s", raw)
}

func TestServerRejectsBadRequests(t *testing.T) {
	store, _ := depot.Open("")
	ts := httptest.NewServer(newServer(store, 1))
	defer ts.Close()

	get, err := http.Get(ts.URL + "/check")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /check: %s", get.Status)
	}

	for name, body := range map[string]string{
		"bad json": `{`,
		"no files": `{"files": {}}`,
		"no roots": `{"files": {"notes.h": "int x;"}}`,
		// The removed legacy flag, and any other unknown field, is
		// refused rather than silently dropped.
		"legacy triage": `{"files": {"a.c": "int x;"}, "triage": true}`,
		"unknown field": `{"files": {"a.c": "int x;"}, "triage_mod": "sym"}`,
	} {
		resp, err := http.Post(ts.URL+"/check", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: got %s, want 400", name, resp.Status)
		}
	}

	// A parse error is reported, not checked.
	resp, err := http.Post(ts.URL+"/check", "application/json",
		strings.NewReader(`{"files": {"broken.c": "void f( {"}}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("parse error: got %s, want 422\n%s", resp.Status, raw)
	}
	var cr checkResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatal(err)
	}
	if len(cr.ParseErrors) == 0 {
		t.Fatalf("no parse_errors in %s", raw)
	}
}

// TestServerHostilePreprocessorInput: a /check whose files hold an
// include cycle that fans out, or a chain of doubling macros, is
// answered promptly with 422 and the one preprocessor error, instead
// of pinning a worker.
func TestServerHostilePreprocessorInput(t *testing.T) {
	store, _ := depot.Open("")
	ts := httptest.NewServer(newServer(store, 1))
	defer ts.Close()

	chain := "#define M0 x\n"
	for i := 1; i <= 40; i++ {
		chain += fmt.Sprintf("#define M%d M%d M%d\n", i, i-1, i-1)
	}
	for _, tc := range []struct {
		name  string
		files map[string]string
		want  string
	}{
		{"include fan-out cycle", map[string]string{
			"h_x.c": "#include \"a.h\"\nvoid h_x(void) {}\n",
			"a.h":   "#include \"b.h\"\n#include \"b.h\"\n",
			"b.h":   "#include \"a.h\"\n#include \"a.h\"\n",
		}, "include depth exceeds"},
		{"doubling macros", map[string]string{
			"h_x.c": chain + "int v = M40;\nvoid h_x(void) {}\n",
		}, "h_x.c:42: macro expansion exceeds"},
	} {
		body, err := json.Marshal(map[string]any{"files": tc.files})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		resp, err := http.Post(ts.URL+"/check", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s: answered after %v", tc.name, d)
		}
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s: got %s, want 422\n%s", tc.name, resp.Status, raw)
		}
		var cr checkResponse
		if err := json.Unmarshal(raw, &cr); err != nil {
			t.Fatal(err)
		}
		if len(cr.ParseErrors) != 1 || !strings.Contains(cr.ParseErrors[0], tc.want) {
			t.Errorf("%s: parse_errors %q, want one containing %q", tc.name, cr.ParseErrors, tc.want)
		}
	}
}

// fill is an endless run of 'x' bytes.
type fill struct{}

func (fill) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	return len(p), nil
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TestServerRejectsOversizedBody: a /check body past maxCheckBodyBytes
// is answered 413 and counted as a request error, and the daemon stops
// reading at the cap instead of buffering the rest.
func TestServerRejectsOversizedBody(t *testing.T) {
	store, _ := depot.Open("")
	srv := newServer(store, 1)

	size := int64(2 * maxCheckBodyBytes)
	body := &countingReader{r: io.MultiReader(
		strings.NewReader(`{"files": {"big.c": "`),
		io.LimitReader(fill{}, size),
		strings.NewReader(`"}}`))}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/check", body))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: got %d, want 413", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "request body exceeds") {
		t.Fatalf("413 body = %q", rec.Body)
	}
	if body.n >= size {
		t.Fatalf("daemon read %d bytes of a %d-byte body; want it to stop at the cap", body.n, size)
	}

	mrec := httptest.NewRecorder()
	srv.ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if got := metricValue(t, mrec.Body.String(), "mcheckd_request_errors_total"); got != 1 {
		t.Fatalf("mcheckd_request_errors_total = %v, want 1", got)
	}
}

func mustQuote(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}
