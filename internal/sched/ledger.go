package sched

// The run ledger: a persistent, append-only record of every check
// run, stored in the depot under runs/v1. Tables 2–7 of the paper are
// snapshots of a run's report stream; the ledger keeps those
// snapshots so any two runs can be compared after the fact — which
// reports appeared, which disappeared (with their witness traces),
// and how the cache and the clock behaved. mcheck -runs/-diff read it
// offline; mcheckd serves it at /debug/runs.
//
// Entries are ordinary depot artifacts (Key{Kind: "runs/v1", Source:
// <run id>}) plus a small index artifact listing the ids in append
// order. The index is read-modify-written under a process-wide mutex,
// so two *processes* appending concurrently can still lose an index
// slot (the entry itself survives and stays addressable by id) — the
// alternative is a lock file the depot deliberately avoids. ListRuns
// therefore treats the index as a hint, not the truth: it merges the
// index with a scan of the stored entries, so an orphaned entry is
// relisted instead of silently vanishing from every listing and diff.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"flashmc/internal/cover"
	"flashmc/internal/depot"
	"flashmc/internal/engine"
)

// runsKind is the artifact kind of ledger entries and their index.
const runsKind = "runs/v1"

// runIndexSource is the reserved Source of the index artifact.
const runIndexSource = "index"

// RunEntry is one check run's ledger record.
type RunEntry struct {
	// ID names the run; assigned by AppendRun (time-ordered prefix +
	// content suffix, so listings sort chronologically).
	ID string `json:"id"`
	// Unix is the run's completion time (seconds since epoch).
	Unix int64 `json:"unix"`
	// Producer is who ran the check: "pid:<n>".
	Producer string `json:"producer,omitempty"`
	// TraceID is the request's trace identity, when traced.
	TraceID string `json:"trace_id,omitempty"`
	// RequestFP fingerprints the request: the program fingerprint and
	// every job's name/version/options. Two runs with equal
	// RequestFP analyzed the same inputs with the same checkers.
	RequestFP string `json:"request_fp"`
	// ProgramFP is the analyzed program's fingerprint.
	ProgramFP string `json:"program_fp"`
	// ReportHash is the hash of the marshaled report stream; equal
	// hashes mean byte-identical reports.
	ReportHash string `json:"report_hash"`
	// Reports is the full ranked report stream, kept so a diff can
	// print appeared/disappeared reports with their witness traces.
	Reports []engine.Report `json:"reports"`

	Functions int `json:"functions"`
	Tasks     int `json:"tasks"`
	// ElapsedUS/TaskUS are the run's wall time and summed task time.
	ElapsedUS int64 `json:"elapsed_us"`
	TaskUS    int64 `json:"task_us"`
	// TaskP50US/P95/P99 are per-task wall-time quantiles.
	TaskP50US int64 `json:"task_p50_us"`
	TaskP95US int64 `json:"task_p95_us"`
	TaskP99US int64 `json:"task_p99_us"`
	// Hits/Misses and Decisions are the cache breakdown (Decisions
	// keys are the Decision* reasons).
	Hits      int            `json:"hits"`
	Misses    int            `json:"misses"`
	Decisions map[string]int `json:"decisions,omitempty"`
	// Coverage is the run's per-checker coverage snapshot, when
	// coverage collection was on.
	Coverage *cover.Artifact `json:"coverage,omitempty"`
}

// DecisionLine renders the entry's cache breakdown in a fixed,
// greppable order: "hit=H new=N vb=V oc=O dep=D ev=E". Unknown
// reasons (an older depot's "remote") are not rendered.
func (e *RunEntry) DecisionLine() string {
	short := map[string]string{
		DecisionHit: "hit", DecisionNew: "new", DecisionVersionBump: "vb",
		DecisionOptionsChanged: "oc", DecisionDepInvalidated: "dep", DecisionEvicted: "ev",
	}
	parts := make([]string, 0, len(DecisionReasons))
	for _, r := range DecisionReasons {
		parts = append(parts, fmt.Sprintf("%s=%d", short[r], e.Decisions[r]))
	}
	return strings.Join(parts, " ")
}

// NewRunEntry builds a ledger entry from one Check call's request and
// result (cov may be nil). The ID is left empty; AppendRun assigns it.
func NewRunEntry(req *Request, res *Result, cov *cover.Set) *RunEntry {
	jobParts := []string{req.ProgramFP}
	for _, j := range req.Jobs {
		jobParts = append(jobParts, j.Name, j.Version, j.Options)
	}
	raw, _ := json.Marshal(res.Reports)
	h := sha256.Sum256(raw)
	e := &RunEntry{
		Unix:       time.Now().Unix(),
		Producer:   localProducer,
		TraceID:    req.TraceID,
		RequestFP:  hashStrings(jobParts...),
		ProgramFP:  req.ProgramFP,
		ReportHash: hex.EncodeToString(h[:]),
		Reports:    res.Reports,
		Functions:  res.Stats.Functions,
		Tasks:      res.Stats.Tasks,
		ElapsedUS:  res.Stats.Elapsed.Microseconds(),
		TaskUS:     res.Stats.TaskTime.Microseconds(),
		Hits:       res.Stats.CacheHits,
		Misses:     res.Stats.CacheMisses,
		Decisions:  res.Stats.Decisions,
	}
	if n := len(res.Stats.TaskDurations); n > 0 {
		durs := make([]time.Duration, n)
		copy(durs, res.Stats.TaskDurations)
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		q := func(p float64) int64 {
			i := int(p * float64(n-1))
			return durs[i].Microseconds()
		}
		e.TaskP50US, e.TaskP95US, e.TaskP99US = q(0.50), q(0.95), q(0.99)
	}
	if cov != nil {
		e.Coverage = cov.Snapshot()
	}
	return e
}

// ledgerMu serializes index read-modify-write within this process.
var ledgerMu sync.Mutex

func runKey(id string) depot.Key { return depot.Key{Kind: runsKind, Source: id} }

// AppendRun assigns e an ID (if empty), stores the entry, and appends
// its id to the ledger index.
func AppendRun(d *depot.Depot, e *RunEntry) error {
	if e.ID == "" {
		suffix := hashStrings(e.RequestFP, e.ReportHash, localProducer,
			fmt.Sprintf("%d-%d", e.Unix, time.Now().UnixNano()))
		e.ID = fmt.Sprintf("%s-%s", time.Unix(e.Unix, 0).UTC().Format("20060102T150405Z"), suffix[:12])
	}
	ledgerMu.Lock()
	defer ledgerMu.Unlock()
	if err := d.PutJSON(runKey(e.ID), e); err != nil {
		return err
	}
	var ids []string
	d.GetJSON(runKey(runIndexSource), &ids)
	ids = append(ids, e.ID)
	return d.PutJSON(runKey(runIndexSource), ids)
}

// ListRuns returns the ledger's run ids. The index supplies the fast
// path and fixes append order; it is merged with a scan of the stored
// runs/v1 entries so an entry whose index slot was lost to a
// cross-process append race (see the package comment) is still
// listed. With no orphans the index order is returned untouched;
// otherwise the union is sorted by id, which AppendRun makes
// chronological by construction (ids are prefixed with the UTC
// completion time).
func ListRuns(d *depot.Depot) []string {
	var ids []string
	d.GetJSON(runKey(runIndexSource), &ids)
	indexed := make(map[string]bool, len(ids))
	for _, id := range ids {
		indexed[id] = true
	}
	orphans := false
	for _, fid := range d.IDs() {
		raw, ok := d.GetByID(fid)
		if !ok || !bytes.Contains(raw, []byte(`"report_hash"`)) {
			continue
		}
		var e struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(raw, &e) != nil || e.ID == "" || indexed[e.ID] {
			continue
		}
		// A ledger entry is stored under the address of its own id; any
		// other payload that mentions report_hash is not one.
		if runKey(e.ID).ID() != fid {
			continue
		}
		ids = append(ids, e.ID)
		indexed[e.ID] = true
		orphans = true
	}
	if orphans {
		sort.Strings(ids)
	}
	return ids
}

// GetRun loads one ledger entry by id.
func GetRun(d *depot.Depot, id string) (*RunEntry, bool) {
	var e RunEntry
	if !d.GetJSON(runKey(id), &e) {
		return nil, false
	}
	return &e, true
}

// RunDiff is the comparison of two ledger entries: the report-stream
// delta plus perf deltas. Empty Appeared+Disappeared with equal
// report hashes means the runs printed byte-identical reports.
type RunDiff struct {
	A string `json:"a"`
	B string `json:"b"`
	// SameRequest is true when both runs analyzed the same inputs
	// with the same checkers (equal RequestFP).
	SameRequest bool `json:"same_request"`
	// Identical is true when the report streams hash equal.
	Identical bool `json:"identical"`
	// Appeared are reports in B but not A; Disappeared the reverse.
	Appeared    []engine.Report `json:"appeared,omitempty"`
	Disappeared []engine.Report `json:"disappeared,omitempty"`
	// Deltas (B minus A).
	ElapsedDeltaUS int64 `json:"elapsed_delta_us"`
	TaskDeltaUS    int64 `json:"task_delta_us"`
	HitDelta       int   `json:"hit_delta"`
	MissDelta      int   `json:"miss_delta"`
}

// reportKey identifies a report across runs: checker, rule, position
// and message (witness traces excluded — a report whose path changed
// but whose finding did not is the same report).
func reportKey(r engine.Report) string {
	return hashStrings(r.SM, r.Rule, r.Fn, r.Pos.String(), r.State, r.Msg)
}

// DiffRuns compares two ledger entries.
func DiffRuns(a, b *RunEntry) *RunDiff {
	diff := &RunDiff{
		A: a.ID, B: b.ID,
		SameRequest:    a.RequestFP == b.RequestFP,
		Identical:      a.ReportHash == b.ReportHash,
		ElapsedDeltaUS: b.ElapsedUS - a.ElapsedUS,
		TaskDeltaUS:    b.TaskUS - a.TaskUS,
		HitDelta:       b.Hits - a.Hits,
		MissDelta:      b.Misses - a.Misses,
	}
	inA := map[string]int{}
	for _, r := range a.Reports {
		inA[reportKey(r)]++
	}
	inB := map[string]int{}
	for _, r := range b.Reports {
		inB[reportKey(r)]++
	}
	for _, r := range b.Reports {
		k := reportKey(r)
		if inB[k] > inA[k] {
			diff.Appeared = append(diff.Appeared, r)
			inB[k]--
		}
	}
	for _, r := range a.Reports {
		k := reportKey(r)
		if inA[k] > inB[k] {
			diff.Disappeared = append(diff.Disappeared, r)
			inA[k]--
		}
	}
	return diff
}
