package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"flashmc/internal/cover"
	"flashmc/internal/depot"
)

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, raw)
	}
	return raw
}

// /debug/coverage accumulates a valid coverage/v1 artifact across
// /check requests. Wall time is not served beside it: /debug/timings
// answers 404.
func TestDebugCoverageAndTimings(t *testing.T) {
	store, err := depot.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(store, 2))
	defer ts.Close()

	// Before any request: an empty but well-formed artifact.
	raw := get(t, ts.URL+"/debug/coverage")
	if n, err := cover.Validate(strings.NewReader(string(raw))); err != nil {
		t.Fatalf("empty coverage invalid: %v\n%s", err, raw)
	} else if n != 0 {
		t.Fatalf("fresh server already has %d checkers", n)
	}

	body := `{"files": {"proto.c": ` + mustQuote(fixture) + `}}`
	postCheck(t, ts, body)

	raw = get(t, ts.URL+"/debug/coverage")
	n, err := cover.Validate(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatalf("coverage after /check invalid: %v\n%s", err, raw)
	}
	if n == 0 {
		t.Fatalf("no coverage recorded after /check:\n%s", raw)
	}
	var art cover.Artifact
	if err := json.Unmarshal(raw, &art); err != nil {
		t.Fatal(err)
	}
	br := art.Checkers["buffer_race"]
	if br == nil || len(br.Rules) == 0 {
		t.Fatalf("buffer_race fired no rules on the race fixture:\n%s", raw)
	}

	resp, err := http.Get(ts.URL + "/debug/timings")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /debug/timings: %s, want 404", resp.Status)
	}

	// A warm repeat replays coverage from the depot: counts double,
	// artifact stays valid.
	postCheck(t, ts, body)
	raw = get(t, ts.URL+"/debug/coverage")
	if _, err := cover.Validate(strings.NewReader(string(raw))); err != nil {
		t.Fatalf("coverage after warm /check invalid: %v\n%s", err, raw)
	}
	var art2 cover.Artifact
	if err := json.Unmarshal(raw, &art2); err != nil {
		t.Fatal(err)
	}
	br2 := art2.Checkers["buffer_race"]
	if br2 == nil {
		t.Fatal("buffer_race coverage vanished after warm run")
	}
	for rule, count := range br.Rules {
		if br2.Rules[rule] != 2*count {
			t.Errorf("rule %s: warm replay count %d, want %d (doubled)", rule, br2.Rules[rule], 2*count)
		}
	}
}
