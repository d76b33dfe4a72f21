// Package obs is the unified observability layer: a dependency-free
// metrics registry (counters, gauges, histograms with Prometheus text
// exposition) and a span tracer that exports Chrome trace_event JSON.
//
// The paper's workflow is inspection-heavy — every Table 7 bug was
// found by a human ranking and reading reports — and §11's
// blinded-checker incident shows how silently an analysis pipeline can
// degrade. Package lint guards against that statically; obs observes
// it dynamically: the engine counts the paths and configurations it
// explores, the scheduler times every task, the depot counts its
// cache traffic, and mcheckd exposes all of it at /metrics. A checker
// that stops matching shows up as engine_rules_fired_total going flat,
// not as a mysteriously clean run.
//
// Everything is safe for concurrent use. Metric registration is
// idempotent: asking a registry for a counter that already exists
// returns the existing one, so package-level metric variables and
// repeated test setups coexist.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Add increases the counter by d (negative deltas are ignored —
// counters only go up).
func (c *Counter) Add(d float64) {
	if c == nil || d < 0 {
		return
	}
	for {
		old := c.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + d)
		if c.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by d (which may be negative).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefBuckets are the default histogram buckets, tuned for analysis
// task latencies: 100µs through 10s.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a cumulative-bucket histogram of observed values
// (typically seconds).
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; +Inf is implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// CounterVec is a family of counters split by one label — the
// scheduler's per-reason cache-decision counters, for example.
// Children render as name{label="value"} sample lines, sorted by
// label value.
type CounterVec struct {
	label    string
	mu       sync.Mutex
	children map[string]*Counter
}

// With returns the child counter for one label value, creating it if
// needed.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[value]
	if !ok {
		c = &Counter{}
		v.children[value] = c
	}
	return c
}

// snapshot returns the child label values (sorted) and counters.
func (v *CounterVec) snapshot() ([]string, map[string]*Counter) {
	v.mu.Lock()
	defer v.mu.Unlock()
	vals := make([]string, 0, len(v.children))
	out := make(map[string]*Counter, len(v.children))
	for val, c := range v.children {
		vals = append(vals, val)
		out[val] = c
	}
	sort.Strings(vals)
	return vals, out
}

// metric kinds for registry bookkeeping.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// family is one registered metric and its metadata.
type family struct {
	name, help, kind string

	counter    *Counter
	counterVec *CounterVec
	gauge      *Gauge
	histogram  *Histogram
}

// Registry holds named metrics and renders them in Prometheus text
// exposition format (version 0.0.4).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Default is the process-wide registry that package-level metrics
// (engine, sched, depot) register into.
var Default = NewRegistry()

// lookup returns the family under name, creating it with mk if absent.
// A name registered under a different kind panics: that is a
// programming error, not a runtime condition.
func (r *Registry) lookup(name, help, kind string, mk func(*family)) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, kind, f.kind))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind}
	mk(f)
	r.families[name] = f
	return f
}

// Counter returns the counter registered under name, creating it if
// needed.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, help, kindCounter, func(f *family) { f.counter = &Counter{} })
	if f.counter == nil {
		panic(fmt.Sprintf("obs: metric %s re-registered as plain counter (was labeled)", name))
	}
	return f.counter
}

// CounterVec returns the labeled counter family registered under name,
// creating it with the given label name if needed. Registering a name
// already held by a plain counter (or vice versa) panics — mixing
// labeled and unlabeled samples in one family is malformed exposition.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	f := r.lookup(name, help, kindCounter, func(f *family) {
		f.counterVec = &CounterVec{label: label, children: map[string]*Counter{}}
	})
	if f.counterVec == nil {
		panic(fmt.Sprintf("obs: metric %s re-registered as labeled counter (was plain)", name))
	}
	return f.counterVec
}

// Gauge returns the gauge registered under name, creating it if
// needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.lookup(name, help, kindGauge, func(f *family) { f.gauge = &Gauge{} }).gauge
}

// Histogram returns the histogram registered under name, creating it
// with the given buckets if needed (nil buckets use DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.lookup(name, help, kindHistogram, func(f *family) {
		if buckets == nil {
			buckets = DefBuckets
		}
		bounds := append([]float64(nil), buckets...)
		sort.Float64s(bounds)
		f.histogram = &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
	})
	return f.histogram
}

// NewCounter registers a counter in the Default registry.
func NewCounter(name, help string) *Counter { return Default.Counter(name, help) }

// NewCounterVec registers a labeled counter family in the Default
// registry.
func NewCounterVec(name, help, label string) *CounterVec {
	return Default.CounterVec(name, help, label)
}

// NewGauge registers a gauge in the Default registry.
func NewGauge(name, help string) *Gauge { return Default.Gauge(name, help) }

// NewHistogram registers a histogram in the Default registry.
func NewHistogram(name, help string, buckets []float64) *Histogram {
	return Default.Histogram(name, help, buckets)
}

// formatFloat renders a sample value the way Prometheus does.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// WritePrometheus renders every registered metric in text exposition
// format, families sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
			return err
		}
		switch {
		case f.counter != nil:
			fmt.Fprintf(w, "%s %s\n", f.name, formatFloat(f.counter.Value()))
		case f.counterVec != nil:
			vals, children := f.counterVec.snapshot()
			for _, v := range vals {
				fmt.Fprintf(w, "%s{%s=%q} %s\n", f.name, f.counterVec.label, v, formatFloat(children[v].Value()))
			}
		case f.gauge != nil:
			fmt.Fprintf(w, "%s %s\n", f.name, formatFloat(f.gauge.Value()))
		case f.histogram != nil:
			h := f.histogram
			cum := uint64(0)
			for i, b := range h.bounds {
				cum += h.buckets[i].Load()
				fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", f.name, formatFloat(b), cum)
			}
			cum += h.buckets[len(h.bounds)].Load()
			fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", f.name, cum)
			fmt.Fprintf(w, "%s_sum %s\n", f.name, formatFloat(h.Sum()))
			if _, err := fmt.Fprintf(w, "%s_count %d\n", f.name, h.count.Load()); err != nil {
				return err
			}
		}
	}
	return nil
}
