package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flashmc/internal/cc/cpp"
	"flashmc/internal/core"
	"flashmc/internal/cover"
	"flashmc/internal/depot"
	"flashmc/internal/engine"
	"flashmc/internal/flash"
	"flashmc/internal/lint"
	"flashmc/internal/obs"
	"flashmc/internal/sched"
)

// checkRequest is the POST /check body. Files maps file names to
// contents; flash-includes.h is provided by the server. Roots are the
// translation units to parse (default: every *.c file, sorted).
// Checkers maps names to ad-hoc metal checker sources. Flash selects
// the built-in suite (default true). Triage replays each SM report
// over feasible paths and ranks it certain / likely-fp; TriageMode
// picks the ladder ("slice", or "sym" to add the bounded symbolic
// evaluator, whose refutations rank infeasible) and implies Triage.
// Verdicts are cached in the server depot, so a warm re-triage of an
// unchanged tree skips path replay.
type checkRequest struct {
	Files      map[string]string `json:"files"`
	Roots      []string          `json:"roots,omitempty"`
	Checkers   map[string]string `json:"checkers,omitempty"`
	Flash      *bool             `json:"flash,omitempty"`
	Triage     bool              `json:"triage,omitempty"`
	TriageMode string            `json:"triage_mode,omitempty"`
}

// triageMode resolves the request's effective triage ladder: the
// empty mode means triage is off, unless the legacy Triage flag asks
// for slicing.
func (r checkRequest) triageMode() (lint.TriageMode, bool) {
	if r.TriageMode == "" && r.Triage {
		return lint.ModeSlice, true
	}
	return lint.ParseTriageMode(r.TriageMode)
}

type traceStepJSON struct {
	File     string            `json:"file,omitempty"`
	Line     int               `json:"line,omitempty"`
	Col      int               `json:"col,omitempty"`
	Rule     string            `json:"rule,omitempty"`
	From     string            `json:"from,omitempty"`
	To       string            `json:"to,omitempty"`
	Event    string            `json:"event,omitempty"`
	Bindings map[string]string `json:"bindings,omitempty"`
}

type reportJSON struct {
	Checker    string          `json:"checker"`
	Rule       string          `json:"rule,omitempty"`
	Fn         string          `json:"fn,omitempty"`
	File       string          `json:"file,omitempty"`
	Line       int             `json:"line,omitempty"`
	Col        int             `json:"col,omitempty"`
	Msg        string          `json:"msg"`
	Confidence string          `json:"confidence,omitempty"`
	Reason     string          `json:"reason,omitempty"`
	Trace      []traceStepJSON `json:"trace,omitempty"`
}

type statsJSON struct {
	Functions    int      `json:"functions"`
	Tasks        int      `json:"tasks"`
	CacheHits    int      `json:"cache_hits"`
	CacheMisses  int      `json:"cache_misses"`
	Reanalyzed   []string `json:"reanalyzed,omitempty"`
	GlobalReruns int      `json:"global_reruns"`
	ElapsedMS    float64  `json:"elapsed_ms"`
	TaskMS       float64  `json:"task_ms"`
	QueueWaitMS  float64  `json:"queue_wait_ms"`
	// Decisions breaks cache lookups down by reason.
	Decisions map[string]int `json:"decisions,omitempty"`
}

type checkResponse struct {
	Reports     []reportJSON `json:"reports"`
	ParseErrors []string     `json:"parse_errors,omitempty"`
	Stats       statsJSON    `json:"stats"`
}

// answer is one /check outcome: an error status with its message, or
// a JSON body (200, or 422 for a tree that does not parse).
type answer struct {
	code    int
	err     string // non-empty: answered with http.Error
	resp    checkResponse
	traceID string // the computing request's id, echoed in X-Trace-Id
}

// flight is one in-progress /check computation shared by identical
// concurrent requests; followers wait on done and reuse its answer.
type flight struct {
	done chan struct{}
	ans  answer
}

// maxCheckBodyBytes caps a POST /check body. The whole generated
// FLASH corpus (six protocols, ~81.5k lines, ~1.3 MB) fits many times
// over; beyond the cap the daemon answers 413 instead of buffering
// whatever a client sends.
const maxCheckBodyBytes = 32 << 20

// traceRingCap bounds how many request traces the server keeps for
// /debug/trace; the oldest is evicted FIFO.
const traceRingCap = 32

// server owns one analyzer over one depot; every request shares the
// cache, which is what makes the second check of a tree warm. Metrics
// live in a per-server obs.Registry so concurrent servers (tests) do
// not share counters; /metrics appends the process-global obs.Default
// registry (engine, sched, depot metrics) after it.
type server struct {
	analyzer  *sched.Analyzer
	store     *depot.Depot
	progCache *sched.ProgramCache
	mux       *http.ServeMux
	reg       *obs.Registry
	coverage  *cover.Set

	requests   *obs.Counter
	errored    *obs.Counter
	reqSeconds *obs.Counter
	sfShared   *obs.Counter
	pcHits     *obs.Counter
	pcMisses   *obs.Counter
	inflight   *obs.Gauge
	depotItems *obs.Gauge
	depotBytes *obs.Gauge

	nextReqID atomic.Uint64

	flightMu sync.Mutex
	flights  map[string]*flight

	// traceMu guards the bounded ring of request traces served by
	// /debug/trace/<id>.
	traceMu    sync.Mutex
	traces     map[string][]obs.Event
	traceOrder []string

	// testLeaderHook, when set, runs in the leader between claiming a
	// flight and computing it — lets tests hold the leader open while
	// followers pile onto the flight.
	testLeaderHook func()
}

func newServer(store *depot.Depot, workers int) *server {
	reg := obs.NewRegistry()
	covSet := cover.NewSet()
	s := &server{
		analyzer:  &sched.Analyzer{Depot: store, Workers: workers, Coverage: covSet},
		store:     store,
		progCache: &sched.ProgramCache{},
		mux:       http.NewServeMux(),
		reg:       reg,
		coverage:  covSet,
		flights:   map[string]*flight{},
		traces:    map[string][]obs.Event{},

		requests:   reg.Counter("mcheckd_requests_total", "POST /check requests received"),
		errored:    reg.Counter("mcheckd_request_errors_total", "requests answered with an error status"),
		reqSeconds: reg.Counter("mcheckd_request_seconds_total", "wall time spent serving /check"),
		sfShared:   reg.Counter("mcheckd_singleflight_shared_total", "/check requests that shared an identical in-flight computation"),
		pcHits:     reg.Counter("mcheckd_program_cache_hits_total", "/check requests whose parsed program was served from the program cache (frontend skipped)"),
		pcMisses:   reg.Counter("mcheckd_program_cache_misses_total", "/check requests that ran the frontend"),
		inflight:   reg.Gauge("mcheckd_inflight_requests", "/check requests currently executing"),
		depotItems: reg.Gauge("mcheckd_depot_entries", "artifacts currently in the depot"),
		depotBytes: reg.Gauge("mcheckd_depot_bytes", "bytes of artifacts currently in the depot"),
	}

	s.mux.HandleFunc("/check", s.handleCheck)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/debug/coverage", s.handleCoverage)
	s.mux.HandleFunc("/debug/trace/", s.handleTrace)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	s.errored.Inc()
	http.Error(w, fmt.Sprintf(format, args...), code)
}

func (s *server) handleCheck(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.fail(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	// Reuse the caller's request id when it sent one, so traces and
	// logs correlate across hops; otherwise mint a process-local id.
	// The id doubles as the request's trace id.
	reqID := r.Header.Get("X-Request-Id")
	if reqID == "" {
		reqID = fmt.Sprintf("req-%06d", s.nextReqID.Add(1))
	}
	w.Header().Set("X-Request-Id", reqID)
	start := time.Now()
	s.requests.Inc()
	s.inflight.Add(1)
	status := http.StatusOK
	defer func() {
		s.inflight.Add(-1)
		dur := time.Since(start)
		s.reqSeconds.Add(dur.Seconds())
		log.Printf("mcheckd: id=%s method=%s path=%s status=%d dur=%s", reqID, r.Method, r.URL.Path, status, dur.Round(time.Microsecond))
	}()

	var req checkRequest
	r.Body = http.MaxBytesReader(w, r.Body, maxCheckBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
			s.fail(w, status, "request body exceeds %d bytes", tooBig.Limit)
			return
		}
		status = http.StatusBadRequest
		s.fail(w, status, "bad request body: %v", err)
		return
	}
	if len(req.Files) == 0 {
		status = http.StatusBadRequest
		s.fail(w, status, "no files")
		return
	}
	triageMode, ok := req.triageMode()
	if !ok {
		status = http.StatusBadRequest
		s.fail(w, status, "triage_mode %q: want \"slice\" or \"sym\"", req.TriageMode)
		return
	}
	roots := req.Roots
	if len(roots) == 0 {
		for name := range req.Files {
			if strings.HasSuffix(name, ".c") {
				roots = append(roots, name)
			}
		}
		sort.Strings(roots)
	}
	if len(roots) == 0 {
		status = http.StatusBadRequest
		s.fail(w, status, "no roots (no *.c files)")
		return
	}

	// Ad-hoc checkers run before the built-in suite, as in cmd/mcheck,
	// sorted by label: the request carries them in a map.
	adhoc := make([]sched.AdHocChecker, 0, len(req.Checkers))
	for name, src := range req.Checkers {
		adhoc = append(adhoc, sched.AdHocChecker{Label: name, Src: src})
	}
	sort.Slice(adhoc, func(i, j int) bool { return adhoc[i].Label < adhoc[j].Label })
	flashSuite := req.Flash == nil || *req.Flash

	// Single-flight: concurrent identical requests share one
	// computation — frontend, job assembly, check and triage — and its
	// answer, errors included. The key is built from the request's
	// inputs alone, so a follower runs nothing.
	srcHash := sched.SourceHash(req.Files, roots)
	fl, leader := s.joinFlight(flightKey(srcHash, adhoc, flashSuite, triageMode))
	if leader {
		if s.testLeaderHook != nil {
			s.testLeaderHook()
		}
		fl.ans = s.compute(req.Files, roots, srcHash, adhoc, flashSuite, triageMode, reqID)
		s.finishFlight(fl)
	} else {
		// Counted at join time: this request will reuse the leader's
		// work whether or not it has finished yet.
		s.sfShared.Inc()
		<-fl.done
		log.Printf("mcheckd: id=%s singleflight=shared", reqID)
	}
	status = fl.ans.code
	if fl.ans.err != "" {
		s.fail(w, status, "%s", fl.ans.err)
		return
	}
	// A follower did no work of its own; its trace is the leader's,
	// addressed by the leader's request id.
	if fl.ans.traceID != "" {
		w.Header().Set("X-Trace-Id", fl.ans.traceID)
	}
	writeJSON(w, status, fl.ans.resp)
}

// compute answers one /check: load the tree (through the program
// cache), assemble its jobs exactly like cmd/mcheck, check, and rank.
func (s *server) compute(files map[string]string, roots []string, srcHash string, adhoc []sched.AdHocChecker, flashSuite bool, triageMode lint.TriageMode, reqID string) answer {
	// The program cache serves identical source trees without running
	// the frontend: a hit returns the already-parsed (immutable)
	// program, whose fingerprints are memoized on it, so the warm path
	// goes straight to the scheduler.
	prog, warmProg, err := s.progCache.Load(srcHash, func() (*core.Program, error) {
		return core.Load("mcheckd", cpp.Layered(cpp.MapSource(files), flash.HeaderSource()), roots)
	})
	if err != nil {
		return answer{code: http.StatusBadRequest, err: fmt.Sprintf("load: %v", err)}
	}
	if warmProg {
		s.pcHits.Inc()
	} else {
		s.pcMisses.Inc()
	}
	resp := checkResponse{Reports: []reportJSON{}}
	for _, e := range prog.ParseErrors {
		resp.ParseErrors = append(resp.ParseErrors, e.Error())
	}
	if len(resp.ParseErrors) > 0 {
		return answer{code: http.StatusUnprocessableEntity, resp: resp}
	}

	spec := flash.ConventionSpec(prog.FnNames())
	set, err := sched.BuildJobs(prog, spec, adhoc, flashSuite)
	if err != nil {
		return answer{code: http.StatusBadRequest, err: fmt.Sprintf("checker %v", err)}
	}
	if len(set.Jobs) == 0 {
		return answer{code: http.StatusBadRequest, err: "nothing to run: flash disabled and no ad-hoc checkers"}
	}

	// Every leader request runs under its own tracer, so concurrent
	// requests' spans never interleave in one trace.
	tracer := obs.NewTracer()
	tracer.SetProcess(1, "mcheckd")
	res, err := s.analyzer.Check(sched.Request{Prog: prog, Spec: spec, Jobs: set.Jobs,
		Tracer: tracer, TraceID: reqID})
	if err != nil {
		return answer{code: http.StatusInternalServerError, err: fmt.Sprintf("check: %v", err)}
	}
	// Task and cache-decision counts are exported once, by the
	// scheduler itself (sched_tasks_total, sched_task_seconds,
	// sched_cache_decisions_total).
	resp.Reports = s.rankReports(prog, res.Reports, set, triageMode)
	resp.Stats = statsJSON{
		Functions:    res.Stats.Functions,
		Tasks:        res.Stats.Tasks,
		CacheHits:    res.Stats.CacheHits,
		CacheMisses:  res.Stats.CacheMisses,
		Reanalyzed:   res.Stats.Reanalyzed,
		GlobalReruns: res.Stats.GlobalReruns,
		ElapsedMS:    float64(res.Stats.Elapsed) / float64(time.Millisecond),
		TaskMS:       float64(res.Stats.TaskTime) / float64(time.Millisecond),
		QueueWaitMS:  float64(res.Stats.QueueWait) / float64(time.Millisecond),
		Decisions:    res.Stats.Decisions,
	}
	s.storeTrace(reqID, tracer.Events())
	return answer{code: http.StatusOK, resp: resp, traceID: reqID}
}

// storeTrace retains the trace of one completed request for
// /debug/trace/<id>, evicting the oldest beyond traceRingCap.
func (s *server) storeTrace(id string, events []obs.Event) {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	if _, ok := s.traces[id]; !ok {
		s.traceOrder = append(s.traceOrder, id)
	}
	s.traces[id] = events
	for len(s.traceOrder) > traceRingCap {
		delete(s.traces, s.traceOrder[0])
		s.traceOrder = s.traceOrder[1:]
	}
}

// handleTrace serves one request's Chrome trace_event file: the check
// span plus one span per scheduler task, laid out per worker lane.
// Open it in chrome://tracing or Perfetto.
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/debug/trace/")
	s.traceMu.Lock()
	events, ok := s.traces[id]
	s.traceMu.Unlock()
	if id == "" || !ok {
		http.Error(w, "unknown trace id", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := obs.WriteTraceJSON(w, events); err != nil {
		log.Printf("mcheckd: /debug/trace/%s: %v", id, err)
	}
}

// flightKey content-addresses one /check computation from the
// request's inputs: the source tree and root order (SourceHash), the
// ad-hoc checkers in label order, whether the built-in suite runs, and
// the triage mode. Parts are length-prefixed, so no two input sets
// share a key.
func flightKey(srcHash string, adhoc []sched.AdHocChecker, flashSuite bool, mode lint.TriageMode) string {
	h := sha256.New()
	put := func(part string) { fmt.Fprintf(h, "%d:%s", len(part), part) }
	put(srcHash)
	for _, c := range adhoc {
		put(c.Label)
		put(c.Src)
	}
	put(fmt.Sprintf("flash=%v", flashSuite))
	put(fmt.Sprintf("triage=%s", mode))
	return hex.EncodeToString(h.Sum(nil))
}

// joinFlight returns the flight for key, reporting whether the caller
// is the leader (and must compute and finish it).
func (s *server) joinFlight(key string) (*flight, bool) {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	if fl, ok := s.flights[key]; ok {
		return fl, false
	}
	fl := &flight{done: make(chan struct{})}
	s.flights[key] = fl
	return fl, true
}

// finishFlight publishes the leader's outcome and retires the key so
// later identical requests compute fresh (their inputs may have been
// GC'd meanwhile).
func (s *server) finishFlight(fl *flight) {
	s.flightMu.Lock()
	for k, v := range s.flights {
		if v == fl {
			delete(s.flights, k)
			break
		}
	}
	s.flightMu.Unlock()
	close(fl.done)
}

// rankReports orders the combined report stream for the response:
// with triage, each SM report is replayed over feasible paths (the
// verdicts served from the depot when warm) and certain reports rank
// above demoted ones (likely-fp, then infeasible); within a rank,
// position order. Without triage every report keeps the CLI's
// position order and carries no confidence.
func (s *server) rankReports(prog *core.Program, reports []engine.Report, set *sched.JobSet, mode lint.TriageMode) []reportJSON {
	var ranked []lint.RankedReport
	if mode != "" {
		ranked, _ = s.analyzer.TriageReports(sched.TriageRequest{Prog: prog,
			SMs: set.SMs, Versions: set.Versions,
			Reports: reports, Options: lint.TriageOptions{Mode: mode}})
		lint.SortRanked(ranked)
	} else {
		ranked = make([]lint.RankedReport, 0, len(reports))
		for _, ri := range engine.PosOrder(reports) {
			ranked = append(ranked, lint.RankedReport{Report: reports[ri]})
		}
	}

	out := make([]reportJSON, 0, len(ranked))
	for _, r := range ranked {
		rj := reportJSON{
			Checker:    r.SM,
			Rule:       r.Rule,
			Fn:         r.Fn,
			File:       r.Pos.File,
			Line:       r.Pos.Line,
			Col:        r.Pos.Col,
			Msg:        r.Msg,
			Confidence: string(r.Confidence),
			Reason:     r.Reason,
		}
		for _, st := range r.Trace {
			rj.Trace = append(rj.Trace, traceStepJSON{
				File: st.Pos.File, Line: st.Pos.Line, Col: st.Pos.Col,
				Rule: st.Rule, From: st.From, To: st.To,
				Event: st.Event, Bindings: st.Bindings,
			})
		}
		out = append(out, rj)
	}
	return out
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	// Depot occupancy is sampled at scrape time from one walk.
	st := s.store.Stats()
	s.depotItems.Set(float64(st.Entries))
	s.depotBytes.Set(float64(st.Bytes))
	s.reg.WritePrometheus(w)
	// Process-global metrics (engine, sched, depot) follow the
	// per-server families; the name spaces are disjoint.
	obs.Default.WritePrometheus(w)
}

// handleCoverage serves the accumulated coverage/v1 artifact: every
// rule, state, pattern alternative and branch refinement each checker
// has fired across all /check requests this process has served (warm
// replays included — coverage rides in the depot artifact).
func (s *server) handleCoverage(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.coverage.Snapshot().WriteJSON(w); err != nil {
		log.Printf("mcheckd: /debug/coverage: %v", err)
	}
}

// healthResponse is the /healthz readiness report, so a load
// balancer can drain a daemon whose cache volume is gone.
type healthResponse struct {
	Status string `json:"status"` // "ok" or "degraded"
	Depot  string `json:"depot"`  // "ok" or the ping error
}

// handleHealthz reports readiness, not just liveness: 200 only while
// the depot is reachable.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthResponse{Status: "ok", Depot: "ok"}
	code := http.StatusOK
	if err := s.store.Ping(); err != nil {
		resp.Status, resp.Depot = "degraded", err.Error()
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}
