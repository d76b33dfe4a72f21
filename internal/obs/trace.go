package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Event is one Chrome trace_event record. Complete spans use phase
// "X" with a microsecond timestamp and duration; chrome://tracing and
// Perfetto render them as nested bars per (pid, tid). Phase "M"
// carries process metadata (process_name), which names a pid's lane.
type Event struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`            // microseconds since trace start
	Dur  float64        `json:"dur,omitempty"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Tracer records hierarchical timed spans. A nil *Tracer is a valid
// no-op recorder, so instrumented code paths never need to test
// whether tracing is on:
//
//	sp := tracer.StartSpan("parse", 0)   // tracer may be nil
//	defer sp.End()
type Tracer struct {
	mu     sync.Mutex
	t0     time.Time
	pid    int
	named  bool // a process_name metadata event names pid's lane
	events []Event
}

// NewTracer returns a tracer whose timestamps are relative to now and
// whose events carry process id 1 until SetProcess changes it.
func NewTracer() *Tracer { return &Tracer{t0: time.Now(), pid: 1} }

// SetProcess names this tracer's own process: subsequent events carry
// pid, and a process_name metadata ("M") event is recorded so trace
// viewers label the lane (once; naming the same pid again records
// nothing). Call it before recording spans.
func (t *Tracer) SetProcess(pid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.named && t.pid == pid {
		return
	}
	t.pid, t.named = pid, true
	t.events = append(t.events, Event{
		Name: "process_name", Ph: "M", PID: pid,
		Args: map[string]any{"name": name},
	})
}

// Span is one in-flight span; End records it.
type Span struct {
	t     *Tracer
	name  string
	tid   int
	start time.Time
	args  map[string]any
}

// StartSpan opens a span on logical thread tid. Spans on the same tid
// whose intervals nest render hierarchically in the trace viewer.
func (t *Tracer) StartSpan(name string, tid int) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, name: name, tid: tid, start: time.Now()}
}

// Arg attaches a key/value argument shown in the viewer's detail pane.
func (s *Span) Arg(key string, value any) *Span {
	if s == nil {
		return nil
	}
	if s.args == nil {
		s.args = map[string]any{}
	}
	s.args[key] = value
	return s
}

// End closes the span, recording a complete ("X") event.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.t.record(Event{
		Name: s.name,
		Ph:   "X",
		TS:   float64(s.start.Sub(s.t.t0)) / float64(time.Microsecond),
		Dur:  float64(time.Since(s.start)) / float64(time.Microsecond),
		TID:  s.tid,
		Args: s.args,
	})
}

func (t *Tracer) record(e Event) {
	t.mu.Lock()
	if e.PID == 0 {
		e.PID = t.pid
	}
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Events returns a copy of the recorded events in recording order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// traceFile is the Chrome trace_event JSON object form.
type traceFile struct {
	TraceEvents     []Event `json:"traceEvents"`
	DisplayTimeUnit string  `json:"displayTimeUnit"`
}

// sortEvents orders events the way ValidateTraceStats checks them: by
// (pid, tid), then timestamp; metadata first and longer spans before
// the spans they enclose at equal timestamps.
func sortEvents(events []Event) {
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		if (a.Ph == "M") != (b.Ph == "M") {
			return a.Ph == "M"
		}
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		return a.Dur > b.Dur
	})
}

// WriteTraceJSON writes events in Chrome trace_event JSON object
// format, loadable by chrome://tracing and ui.perfetto.dev. Events are
// sorted per (pid, tid) lane, which is the order ValidateTraceStats
// asserts timestamps are monotone in.
func WriteTraceJSON(w io.Writer, events []Event) error {
	sorted := append([]Event(nil), events...)
	sortEvents(sorted)
	if sorted == nil {
		sorted = []Event{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: sorted, DisplayTimeUnit: "ms"})
}

// WriteJSON writes the trace in Chrome trace_event JSON object format.
func (t *Tracer) WriteJSON(w io.Writer) error {
	return WriteTraceJSON(w, t.Events())
}

// ProcessStats is one process's slice of a validated trace.
type ProcessStats struct {
	PID   int
	Name  string
	Spans int
}

// TraceStats summarizes a validated trace: total complete spans plus
// the per-process breakdown (processes sorted by pid; names come from
// process_name metadata events when present).
type TraceStats struct {
	Spans     int
	Processes []ProcessStats
}

// ValidateTraceStats checks that r holds Chrome trace_event JSON
// (object form or bare array) containing at least one complete ("X")
// span, and returns the complete-span count with the per-process
// breakdown; cmd/obscheck uses it as the CI gate on -trace output.
// Beyond well-formedness it asserts the timestamp discipline trace
// viewers rely on: every timestamp non-negative, every complete span's
// duration non-negative, and timestamps monotone per (pid, tid) lane
// in file order (the order WriteTraceJSON emits).
func ValidateTraceStats(r io.Reader) (*TraceStats, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var events []Event
	var obj traceFile
	if err := json.Unmarshal(raw, &obj); err != nil {
		if aerr := json.Unmarshal(raw, &events); aerr != nil {
			return nil, fmt.Errorf("obs: trace is not valid JSON: %w", err)
		}
	} else {
		events = obj.TraceEvents
	}
	type lane struct{ pid, tid int }
	lastTS := map[lane]float64{}
	names := map[int]string{}
	spans := map[int]int{}
	total := 0
	for _, e := range events {
		if e.Name == "" || e.Ph == "" {
			return nil, fmt.Errorf("obs: trace event missing name or phase: %+v", e)
		}
		if e.TS < 0 {
			return nil, fmt.Errorf("obs: event %q has negative timestamp %v", e.Name, e.TS)
		}
		if e.Ph == "M" {
			if e.Name == "process_name" {
				if n, ok := e.Args["name"].(string); ok {
					names[e.PID] = n
				}
			}
			continue
		}
		l := lane{e.PID, e.TID}
		if last, ok := lastTS[l]; ok && e.TS < last {
			return nil, fmt.Errorf("obs: timestamps not monotone in lane (pid=%d,tid=%d): %q at %v after %v",
				e.PID, e.TID, e.Name, e.TS, last)
		}
		lastTS[l] = e.TS
		if e.Ph == "X" {
			if e.Dur < 0 {
				return nil, fmt.Errorf("obs: complete event %q has negative duration", e.Name)
			}
			spans[e.PID]++
			total++
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("obs: trace contains no complete (ph=X) span")
	}
	st := &TraceStats{Spans: total}
	pids := make([]int, 0, len(spans))
	for pid := range spans {
		pids = append(pids, pid)
	}
	for pid := range names {
		if _, ok := spans[pid]; !ok {
			pids = append(pids, pid)
		}
	}
	sort.Ints(pids)
	for _, pid := range pids {
		st.Processes = append(st.Processes, ProcessStats{PID: pid, Name: names[pid], Spans: spans[pid]})
	}
	return st, nil
}
