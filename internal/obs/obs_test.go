package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeArithmetic(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(2.5)
	c.Add(-7) // ignored: counters only go up
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	if again := r.Counter("c_total", "a counter"); again != c {
		t.Fatal("re-registration did not return the same counter")
	}

	g := r.Gauge("g", "a gauge")
	g.Set(10)
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Fatalf("gauge = %v, want 6", got)
	}
	g.SetMax(3)
	if got := g.Value(); got != 6 {
		t.Fatalf("SetMax lowered gauge to %v", got)
	}
	g.SetMax(9)
	if got := g.Value(); got != 9 {
		t.Fatalf("SetMax(9) = %v, want 9", got)
	}
}

func TestNilReceiversAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tr *Tracer
	c.Inc()
	c.Add(1)
	g.Set(1)
	g.Add(1)
	g.SetMax(1)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	tr.Instant("x", 0)
	sp := tr.StartSpan("x", 0)
	sp.Arg("k", "v")
	sp.End()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metric returned non-zero value")
	}
	if tr.Events() != nil {
		t.Fatal("nil tracer returned events")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "durations", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 5.605; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`h_seconds_bucket{le="0.01"} 1`,
		`h_seconds_bucket{le="0.1"} 3`,
		`h_seconds_bucket{le="1"} 4`,
		`h_seconds_bucket{le="+Inf"} 5`,
		`h_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentMetricUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("par_total", "")
	h := r.Histogram("par_seconds", "", nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %v, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "")
}

// TestExpositionRoundTrip is the contract behind the ci.sh gate: what
// WritePrometheus emits must satisfy ParsePrometheus.
func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("rt_requests_total", "requests served").Add(42)
	r.Gauge("rt_queue_depth", "current queue depth").Set(3)
	r.GaugeFunc("rt_hit_rate", "cache hit rate", func() float64 { return 0.75 })
	h := r.Histogram("rt_latency_seconds", "request latency", nil)
	h.Observe(0.002)
	h.Observe(1.7)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("own exposition does not parse: %v\n%s", err, buf.String())
	}
	if f := fams["rt_requests_total"]; f == nil || f.Type != "counter" || len(f.Samples) != 1 || f.Samples[0].Value != 42 {
		t.Fatalf("rt_requests_total parsed wrong: %+v", f)
	}
	if f := fams["rt_hit_rate"]; f == nil || f.Samples[0].Value != 0.75 {
		t.Fatalf("rt_hit_rate parsed wrong: %+v", f)
	}
	f := fams["rt_latency_seconds"]
	if f == nil || f.Type != "histogram" {
		t.Fatalf("rt_latency_seconds parsed wrong: %+v", f)
	}
	// All bucket/sum/count series folded onto the parent family.
	var sawCount bool
	for _, s := range f.Samples {
		if s.Name == "rt_latency_seconds_count" && s.Value == 2 {
			sawCount = true
		}
	}
	if !sawCount {
		t.Fatalf("histogram count series missing: %+v", f.Samples)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"bad name":          "9bad_total 1\n",
		"no value":          "just_a_name\n",
		"bad value":         "m_total notafloat\n",
		"unquoted label":    "m{l=v} 1\n",
		"bad label name":    `m{9l="v"} 1` + "\n",
		"unterminated":      `m{l="v} 1` + "\n",
		"dup sample":        "m_total 1\nm_total 2\n",
		"dup TYPE":          "# TYPE m counter\n# TYPE m gauge\nm 1\n",
		"unknown type":      "# TYPE m widget\nm 1\n",
		"type after sample": "m 1\n# TYPE m counter\n",
		"bad escape":        `m{l="a\q"} 1` + "\n",
		"no Inf bucket": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 2` + "\nh_sum 1\nh_count 2\n",
		"count mismatch": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 2` + "\n" + `h_bucket{le="+Inf"} 2` + "\nh_sum 1\nh_count 3\n",
		"non-cumulative": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="+Inf"} 2` + "\nh_sum 1\nh_count 2\n",
	}
	for name, input := range cases {
		if _, err := ParsePrometheus(strings.NewReader(input)); err == nil {
			t.Errorf("%s: parser accepted %q", name, input)
		}
	}
}

func TestParseAcceptsValid(t *testing.T) {
	input := "# some free-form comment\n" +
		"# HELP m_total requests \"quoted\" help\n" +
		"# TYPE m_total counter\n" +
		"m_total 12\n" +
		`lab{a="x",b="y \"z\" \\ \n"} +Inf` + "\n" +
		"ts_metric 3.5 1700000000000\n"
	fams, err := ParsePrometheus(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	lab := fams["lab"]
	if lab == nil || len(lab.Samples) != 1 {
		t.Fatalf("lab parsed wrong: %+v", lab)
	}
	if got := lab.Samples[0].Labels["b"]; got != "y \"z\" \\ \n" {
		t.Fatalf("label escape handling wrong: %q", got)
	}
	if !math.IsInf(lab.Samples[0].Value, 1) {
		t.Fatalf("value = %v, want +Inf", lab.Samples[0].Value)
	}
}

func TestTracerRoundTrip(t *testing.T) {
	tr := NewTracer()
	sp := tr.StartSpan("parse", 0).Arg("file", "proto.go")
	inner := tr.StartSpan("sm-run", 1)
	inner.End()
	sp.End()
	tr.Instant("gc", 0)

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("own trace does not validate: %v\n%s", err, buf.String())
	}
	if n != 2 {
		t.Fatalf("complete spans = %d, want 2", n)
	}

	events := tr.Events()
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3", len(events))
	}
	// End-ordering: inner span completed first.
	if events[0].Name != "sm-run" || events[1].Name != "parse" {
		t.Fatalf("unexpected event order: %q, %q", events[0].Name, events[1].Name)
	}
	if events[1].Args["file"] != "proto.go" {
		t.Fatalf("span arg lost: %+v", events[1].Args)
	}
}

func TestValidateTraceRejects(t *testing.T) {
	cases := map[string]string{
		"not json":      "garbage",
		"no spans":      `{"traceEvents":[{"name":"i1","ph":"i","ts":0,"pid":1,"tid":0}]}`,
		"empty":         `{"traceEvents":[]}`,
		"missing phase": `[{"name":"x","ts":0,"pid":1,"tid":0}]`,
	}
	for name, input := range cases {
		if _, err := ValidateTrace(strings.NewReader(input)); err == nil {
			t.Errorf("%s: ValidateTrace accepted %q", name, input)
		}
	}
	// Bare-array form with one complete span is valid.
	n, err := ValidateTrace(strings.NewReader(
		`[{"name":"x","ph":"X","ts":0,"dur":5,"pid":1,"tid":0}]`))
	if err != nil || n != 1 {
		t.Fatalf("bare array: n=%d err=%v", n, err)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("s_total", "").Add(7)
	h := r.Histogram("s_seconds", "", nil)
	h.Observe(0.5)
	snap := r.Snapshot()
	if snap["s_total"] != 7 {
		t.Fatalf("snapshot s_total = %v", snap["s_total"])
	}
	if snap["s_seconds_count"] != 1 || snap["s_seconds_sum"] != 0.5 {
		t.Fatalf("snapshot histogram = %v / %v", snap["s_seconds_count"], snap["s_seconds_sum"])
	}
}

// TestCounterVecExposition: a labeled counter family renders one
// sample per label value, sorted, parses with the repo's own parser,
// and lands in Snapshot under name{label="value"} keys.
func TestCounterVecExposition(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("cv_decisions_total", "cache decisions by reason", "reason")
	vec.With("new").Add(3)
	vec.With("hit").Add(7)
	if got := r.CounterVec("cv_decisions_total", "cache decisions by reason", "reason"); got != vec {
		t.Fatal("re-registration returned a different vec")
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	i0 := strings.Index(text, `cv_decisions_total{reason="hit"} 7`)
	i1 := strings.Index(text, `cv_decisions_total{reason="new"} 3`)
	if i0 < 0 || i1 < 0 || i0 > i1 {
		t.Fatalf("labeled samples missing or unsorted:\n%s", text)
	}
	fams, err := ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("labeled exposition does not parse: %v\n%s", err, text)
	}
	f := fams["cv_decisions_total"]
	if f == nil || f.Type != "counter" || len(f.Samples) != 2 {
		t.Fatalf("cv_decisions_total parsed wrong: %+v", f)
	}
	for _, s := range f.Samples {
		if s.Labels["reason"] == "" {
			t.Fatalf("sample lost its label: %+v", s)
		}
	}

	snap := r.Snapshot()
	if snap[`cv_decisions_total{reason="hit"}`] != 7 || snap[`cv_decisions_total{reason="new"}`] != 3 {
		t.Fatalf("snapshot keys wrong: %v", snap)
	}

	// Mixing a plain counter into a labeled family is a programming
	// error and must panic, like any kind mismatch.
	defer func() {
		if recover() == nil {
			t.Fatal("plain Counter on a labeled family did not panic")
		}
	}()
	var c *Counter = r.Counter("cv_decisions_total", "cache decisions by reason")
	_ = c
}
