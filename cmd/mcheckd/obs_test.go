package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"flashmc/internal/depot"
	"flashmc/internal/obs"
)

// TestSingleFlightSharesComputation proves the dedupe path: the leader
// is held open until three identical requests have joined its flight,
// so exactly one computation — frontend included — serves all four
// responses, and the shared counter records the three followers. A
// tree that does not parse is one such computation too: all four
// requests get the leader's 422.
func TestSingleFlightSharesComputation(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
		code int
	}{
		{"reports", fixture, http.StatusOK},
		{"parse error", "void f( {", http.StatusUnprocessableEntity},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, err := depot.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			srv := newServer(store, 2)
			srv.testLeaderHook = func() {
				// Followers bump the counter at join time, before
				// blocking on the flight, so this wait is race-free.
				deadline := time.Now().Add(10 * time.Second)
				for srv.sfShared.Value() < 3 {
					if time.Now().After(deadline) {
						t.Error("followers never joined the flight")
						return
					}
					time.Sleep(time.Millisecond)
				}
			}
			ts := httptest.NewServer(srv)
			defer ts.Close()

			body := `{"files": {"proto.c": ` + mustQuote(tc.src) + `}}`
			responses := make([][]byte, 4)
			var wg sync.WaitGroup
			for i := range responses {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					resp, err := http.Post(ts.URL+"/check", "application/json", strings.NewReader(body))
					if err != nil {
						t.Errorf("request %d: %v", i, err)
						return
					}
					defer resp.Body.Close()
					if resp.StatusCode != tc.code {
						t.Errorf("request %d: %s, want %d", i, resp.Status, tc.code)
						return
					}
					if resp.Header.Get("X-Request-Id") == "" {
						t.Errorf("request %d: no X-Request-Id header", i)
					}
					responses[i], _ = io.ReadAll(resp.Body)
				}(i)
			}
			wg.Wait()

			for i := 1; i < len(responses); i++ {
				if !bytes.Equal(responses[0], responses[i]) {
					t.Fatalf("response %d differs from response 0:\n%s\nvs\n%s", i, responses[i], responses[0])
				}
			}
			if tc.code == http.StatusUnprocessableEntity && !bytes.Contains(responses[0], []byte(`"parse_errors"`)) {
				t.Fatalf("422 body has no parse_errors:\n%s", responses[0])
			}
			if got := srv.requests.Value(); got != 4 {
				t.Fatalf("mcheckd_requests_total = %g, want 4", got)
			}

			// One leader computed: the frontend ran once and the three
			// followers never reached the program cache.
			metrics := scrapeMetrics(t, ts)
			for _, want := range []string{
				"mcheckd_singleflight_shared_total 3\n",
				"mcheckd_program_cache_misses_total 1\n",
				"mcheckd_program_cache_hits_total 0\n",
			} {
				if !strings.Contains(metrics, want) {
					t.Errorf("metrics missing %q:\n%s", want, grepMetrics(metrics, "mcheckd_"))
				}
			}
		})
	}
}

// TestMetricsExpositionParses gates the /metrics body through the
// same parser ci.sh uses: it must be well-formed Prometheus text and
// include both the per-server and the process-global families.
func TestMetricsExpositionParses(t *testing.T) {
	store, _ := depot.Open("")
	ts := httptest.NewServer(newServer(store, 1))
	defer ts.Close()

	if _, err := http.Post(ts.URL+"/check", "application/json",
		strings.NewReader(`{"files": {"proto.c": `+mustQuote(fixture)+`}}`)); err != nil {
		t.Fatal(err)
	}
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	fams, err := obs.ParsePrometheus(mr.Body)
	if err != nil {
		t.Fatalf("/metrics is not valid Prometheus text: %v", err)
	}
	byName := map[string]*obs.PromFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	for _, want := range []string{
		"mcheckd_requests_total",
		"mcheckd_singleflight_shared_total",
		"mcheckd_depot_entries",
		"engine_runs_total", // process-global registry rides along
	} {
		if _, ok := byName[want]; !ok {
			t.Errorf("metrics missing family %q", want)
		}
	}
	if f := byName["mcheckd_request_seconds_total"]; f.Type != "counter" {
		t.Errorf("mcheckd_request_seconds_total type = %q, want counter", f.Type)
	}
}

// TestReportsCarryWitnessTraces pins the JSON surface of witness
// traces: every report has a non-empty trace whose final step lands on
// the report position.
func TestReportsCarryWitnessTraces(t *testing.T) {
	store, _ := depot.Open("")
	ts := httptest.NewServer(newServer(store, 1))
	defer ts.Close()

	cr, raw := postCheck(t, ts, `{"files": {"proto.c": `+mustQuote(fixture)+`}}`)
	if len(cr.Reports) == 0 {
		t.Fatalf("no reports:\n%s", raw)
	}
	for _, r := range cr.Reports {
		if len(r.Trace) == 0 {
			t.Errorf("report %s/%s has no witness trace", r.Checker, r.Msg)
			continue
		}
		last := r.Trace[len(r.Trace)-1]
		if last.File != r.File || last.Line != r.Line {
			t.Errorf("report at %s:%d: final trace step at %s:%d", r.File, r.Line, last.File, last.Line)
		}
	}
}
