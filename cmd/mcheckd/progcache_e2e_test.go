package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"flashmc/internal/depot"
)

// TestServerProgramCacheWarmPath: the second identical /check must be
// served from the program cache — frontend skipped, visible as
// mcheckd_program_cache_hits_total > 0 — with reports byte-identical
// to the cold request. Runs on an on-disk depot so the scrape-time
// occupancy gauges are exercised too.
func TestServerProgramCacheWarmPath(t *testing.T) {
	store, err := depot.Open(filepath.Join(t.TempDir(), "depot"))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(store, 2))
	defer ts.Close()

	body := `{"files": {"proto.c": ` + mustQuote(fixture) + `}}`
	cold, coldRaw := postCheck(t, ts, body)
	warm, warmRaw := postCheck(t, ts, body)

	coldReports, _ := json.Marshal(cold.Reports)
	warmReports, _ := json.Marshal(warm.Reports)
	if !bytes.Equal(coldReports, warmReports) {
		t.Fatalf("warm reports differ from cold:\ncold %s\nwarm %s", coldRaw, warmRaw)
	}
	if warm.Stats.CacheMisses != 0 {
		t.Fatalf("warm run missed %d depot artifacts", warm.Stats.CacheMisses)
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mraw, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	metrics := string(mraw)
	if !strings.Contains(metrics, "mcheckd_program_cache_hits_total 1") {
		t.Errorf("warm request did not hit the program cache:\n%s", grepMetrics(metrics, "program_cache"))
	}
	if !strings.Contains(metrics, "mcheckd_program_cache_misses_total 1") {
		t.Errorf("cold request not counted as a program-cache miss:\n%s", grepMetrics(metrics, "program_cache"))
	}
	// Both occupancy gauges come from one scrape-time walk and match
	// the depot's own accounting (nothing writes between the scrape
	// and this Stats call).
	st := store.Stats()
	if st.Entries == 0 {
		t.Fatal("cold request stored no artifacts")
	}
	for _, want := range []string{
		fmt.Sprintf("mcheckd_depot_entries %d\n", st.Entries),
		fmt.Sprintf("mcheckd_depot_bytes %d\n", st.Bytes),
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, grepMetrics(metrics, "mcheckd_depot"))
		}
	}

	// A request for a different tree must parse (no false hits).
	other := `{"files": {"other.c": ` + mustQuote(strings.Replace(fixture, "h_local_get", "h_other_get", 1)) + `}}`
	postCheck(t, ts, other)
	mr2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mraw2, _ := io.ReadAll(mr2.Body)
	mr2.Body.Close()
	if !strings.Contains(string(mraw2), "mcheckd_program_cache_misses_total 2") {
		t.Errorf("distinct tree did not miss the program cache:\n%s", grepMetrics(string(mraw2), "program_cache"))
	}
}

// TestServerProgramCacheSingleFlight: concurrent identical /check
// requests on a cold server run the frontend once. The program cache
// does not deduplicate misses itself; the server's single-flight does,
// and the program is resident before the flight ends, so whatever the
// timing, every other request either shares the flight or hits the
// cache.
func TestServerProgramCacheSingleFlight(t *testing.T) {
	store, err := depot.Open("")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(store, 2)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const n = 8
	body := `{"files": {"proto.c": ` + mustQuote(fixture) + `}}`
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/check", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: %s", i, resp.Status)
			}
		}(i)
	}
	wg.Wait()

	if got := srv.pcMisses.Value(); got != 1 {
		t.Fatalf("frontend ran %g times for %d identical requests, want 1", got, n)
	}
	if hits, shared := srv.pcHits.Value(), srv.sfShared.Value(); hits+shared != n-1 {
		t.Fatalf("program cache hits %g + shared flights %g = %g, want %d", hits, shared, hits+shared, n-1)
	}
	if srv.progCache.Len() != 1 {
		t.Fatalf("program cache holds %d programs, want 1", srv.progCache.Len())
	}
}

// grepMetrics returns the lines of a metrics dump mentioning substr,
// to keep failure output readable.
func grepMetrics(metrics, substr string) string {
	var out []string
	for _, line := range strings.Split(metrics, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
