package sched

// Cache-decision attribution. Counting hits and misses (PR 2) says
// *how much* was recomputed; it cannot say *why*. This file
// classifies every depot lookup the pipeline makes into one of six
// reasons, so "the checker version bumped" and "the cache evicted it"
// stop looking identical in a run's stats — the distinction the
// ROADMAP's warm-cache-across-checker-upgrades item turns on.
//
// Classification works from a tiny per-task marker artifact
// (tasklast/v1) recording the key the task last computed under.
// Markers are written only when a task actually recomputes, so a
// fully-warm run writes nothing and the warm==cold byte-identity
// gates are untouched. On a miss the old marker (if any) is compared
// field-by-field against the new key:
//
//	no marker                → "new"            (never computed here)
//	same key id              → "evicted"        (was cached, GC took it)
//	version differs          → "checker-version-bump"
//	options differ           → "options-changed"
//	source differs           → "dep-invalidated" (the code changed)
//
// Markers are keyed by stable task identity (checker × "sm:<fn>" /
// "sum:<fn>" / "lanes:<handler>" / "glob"), not by content, so they
// survive exactly the input changes they exist to attribute. In a
// depot shared across different programs the identities can collide,
// so attribution is best-effort there — counts, not invariants.
//
// Each lookup counts exactly one decision (runState.lookup): "hit",
// or the classified reason for the recompute that follows the miss.

import (
	"fmt"
	"os"
	"sort"

	"flashmc/internal/depot"
	"flashmc/internal/obs"
)

// Cache-decision reasons, exported as sched_cache_decisions_total
// label values and Stats.Decisions keys.
const (
	DecisionHit            = "hit"
	DecisionNew            = "new"
	DecisionVersionBump    = "checker-version-bump"
	DecisionOptionsChanged = "options-changed"
	DecisionDepInvalidated = "dep-invalidated"
	DecisionEvicted        = "evicted"
)

// DecisionReasons lists every reason in display order
// (Stats.DecisionLine).
var DecisionReasons = []string{
	DecisionHit, DecisionNew, DecisionVersionBump,
	DecisionOptionsChanged, DecisionDepInvalidated, DecisionEvicted,
}

var decisionCounts = obs.NewCounterVec("sched_cache_decisions_total",
	"scheduler cache decisions by reason", "reason")

// taskLastKind is the artifact kind of per-task recomputation markers.
const taskLastKind = "tasklast/v1"

// taskMarker records the key a task last recomputed under.
type taskMarker struct {
	Source  string `json:"source"`
	Version string `json:"version"`
	Options string `json:"options"`
	KeyID   string `json:"key_id"`
}

// markerKey addresses a task's marker by its stable identity: the
// checker and a task name that survives input changes.
func markerKey(checker, identity string) depot.Key {
	return depot.Key{Kind: taskLastKind, Checker: checker, Options: identity}
}

// classifyMiss attributes one cache miss for the task identified by
// (checker, identity) about to recompute under key.
func classifyMiss(d *depot.Depot, checker, identity string, key depot.Key) string {
	var m taskMarker
	if !d.GetJSON(markerKey(checker, identity), &m) {
		return DecisionNew
	}
	switch {
	case m.KeyID == key.ID():
		return DecisionEvicted
	case m.Version != key.Version:
		return DecisionVersionBump
	case m.Options != key.Options:
		return DecisionOptionsChanged
	case m.Source != key.Source:
		return DecisionDepInvalidated
	}
	// Same identity, same key fields, different id cannot happen (the
	// id is a pure function of the fields); evicted is the safe read.
	return DecisionEvicted
}

// writeMarker records that the task is recomputing under key, so the
// next run's miss (if any) can be attributed.
func writeMarker(d *depot.Depot, checker, identity string, key depot.Key) {
	_ = d.PutJSON(markerKey(checker, identity), taskMarker{
		Source: key.Source, Version: key.Version, Options: key.Options, KeyID: key.ID(),
	})
}

// localProducer identifies this process in provenance records.
var localProducer = fmt.Sprintf("pid:%d", os.Getpid())

// summaryDepKeys returns the sorted depot key ids of the per-function
// summary artifacts a handler's lane traversal consumed — its
// provenance dep list.
func summaryDepKeys(reach map[string]bool, fpByFn map[string]string, version, options string) []string {
	var deps []string
	for fn := range reach {
		fp, ok := fpByFn[fn]
		if !ok {
			continue
		}
		deps = append(deps, depot.Key{Kind: "summary", Source: fp, Checker: "lanes",
			Version: version, Options: options}.ID())
	}
	sort.Strings(deps)
	return deps
}
