#!/bin/sh
# CI entry point. Tier-1 (build + tests) first, then the stricter
# gates: go vet and gofmt across every package and the test suite
# again under the race detector (the engine and checkers are
# exercised in parallel by the paper-table tests, so data races would
# hide there).
set -eux

cd "$(dirname "$0")"

go build ./...
go test ./...

# The benchmark under perfbench/ is its own module, so the root build
# never compiles it; vet it here so an engine API change that breaks
# it fails CI instead of the next benchmark run.
(cd perfbench && go vet ./...)

go vet ./...
test -z "$(gofmt -l .)"
go test -race ./...

# Incremental-analysis gate: checking the generated corpus twice
# through one artifact depot must print byte-identical reports — the
# second (warm) run is served from the cache, and a divergence means
# the depot keys miss an input the checkers depend on. mcheck exits 1
# when it reports, so `|| true` keeps set -e happy.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/flashgen -o "$tmp/corpus"
go build -o "$tmp/mcheck" ./cmd/mcheck
for proto in bitvector dyn_ptr sci coma rac common; do
    "$tmp/mcheck" -flash -cache "$tmp/depot" "$tmp/corpus/$proto"/*.c \
        > "$tmp/cold.$proto" || true
    "$tmp/mcheck" -flash -cache "$tmp/depot" "$tmp/corpus/$proto"/*.c \
        > "$tmp/warm.$proto" || true
    cmp "$tmp/cold.$proto" "$tmp/warm.$proto"
done

# Depot-churn gate: fill a tiny depot past its byte budget and
# let LRU eviction run between a cold and a warm pass of every
# protocol. Evicted artifacts recompute, surviving ones replay, and
# either way the warm report stream must stay byte-identical to cold;
# the -stats dump must attribute a nonzero depot_gc_evicted_bytes_total
# or the budget never actually evicted and the gate is vacuous.
for proto in bitvector dyn_ptr sci coma rac common; do
    "$tmp/mcheck" -flash -cache "$tmp/churn-depot" \
        -cache-max-bytes 65536 "$tmp/corpus/$proto"/*.c \
        > "$tmp/churn-cold.$proto" || true
    "$tmp/mcheck" -flash -cache "$tmp/churn-depot" \
        -cache-max-bytes 65536 -stats "$tmp/corpus/$proto"/*.c \
        > "$tmp/churn-warm.$proto" 2> "$tmp/churn-stats.$proto" || true
    cmp "$tmp/churn-cold.$proto" "$tmp/churn-warm.$proto"
done
# (`test -z` rather than `! grep`: set -e ignores a negated pipeline.)
grep "^depot_gc_evicted_bytes_total" "$tmp/churn-stats.common"
test -z "$(grep -x "depot_gc_evicted_bytes_total 0" "$tmp/churn-stats.common")"

# Observability gate: a real corpus run must emit (a) Prometheus text
# that the repo's own parser accepts and (b) a Chrome trace_event file
# containing at least one complete span. obscheck exits nonzero on
# malformed output; mcheck exits 1 when it reports, hence `|| true`.
"$tmp/mcheck" -flash -cache "$tmp/depot" \
    -trace "$tmp/obs-trace.json" -metrics "$tmp/obs-metrics.txt" \
    "$tmp/corpus/sci"/*.c > /dev/null || true
go run ./cmd/obscheck -prom "$tmp/obs-metrics.txt" -trace "$tmp/obs-trace.json"

# Coverage & performance gate: the corpus coverage run must write a
# valid coverage/v1 artifact (from both mcheck and paperbench), and
# the measured wall time / configs explored must stay within 25% of
# the committed baseline. After an intentional perf or corpus change,
# regenerate it: go run ./cmd/paperbench -bench BENCH_PR4.json
"$tmp/mcheck" -flash -cache "$tmp/depot" -coverage-out "$tmp/mcheck-cov.json" \
    "$tmp/corpus/sci"/*.c > /dev/null 2>&1 || true
go run ./cmd/paperbench -bench "$tmp/bench.json" -gate BENCH_PR4.json \
    -coverage-out "$tmp/paperbench-cov.json"
go run ./cmd/obscheck -coverage "$tmp/mcheck-cov.json" -coverage "$tmp/paperbench-cov.json"

# Symbolic-triage gate: over the seeded corpus the sym ladder must
# keep every one of the 34 true errors certain and demote strictly
# more false-positive sites than slicing's 24 (TestFPTriageSym pins
# the per-checker table against the flashgen manifest). Alongside it,
# the ranked stream must be deterministic: -j 1 cold vs -j 4 warm
# through one verdict depot must print byte-identical rankings.
go test -count=1 -run 'TestFPTriage$|TestFPTriageSym' ./internal/paper/
for proto in bitvector dyn_ptr sci coma rac common; do
    "$tmp/mcheck" -flash -triage sym -j 1 -cache "$tmp/tri-depot" \
        "$tmp/corpus/$proto"/*.c > "$tmp/tri-cold.$proto" || true
    "$tmp/mcheck" -flash -triage sym -j 4 -cache "$tmp/tri-depot" \
        "$tmp/corpus/$proto"/*.c > "$tmp/tri-warm.$proto" || true
    cmp "$tmp/tri-cold.$proto" "$tmp/tri-warm.$proto"
done

# Soundness fuzz: the symbolic evaluator must never refute a path a
# concrete execution can take. Short budget; minimization capped (the
# default spends 60s shrinking every new interesting input).
go test -run FuzzSymEval -fuzz FuzzSymEval -fuzztime 15s -fuzzminimizetime 1x ./internal/sym/

# Engine-equivalence fuzz: the dataflow engine must report exactly the
# (position, message) multiset the every-path walk reports, for every
# SM checker over generated protocols. Same short budget.
go test -run FuzzEngineVsPaths -fuzz FuzzEngineVsPaths -fuzztime 15s -fuzzminimizetime 1x ./internal/checkers/

# Daemon trace gate: one local mcheckd must serve a valid Chrome
# trace for a /check it answered (fetched by mcheckclient -trace from
# /debug/trace/<X-Trace-Id>), and obscheck's per-process breakdown
# must name the mcheckd process — a trace without it means the
# per-request tracer lost its process metadata.
go build -o "$tmp/mcheckd" ./cmd/mcheckd
go build -o "$tmp/mcheckclient" ./cmd/mcheckclient
"$tmp/mcheckd" -addr 127.0.0.1:18288 -j 2 &
ld=$!
trap 'kill $ld 2>/dev/null || true; rm -rf "$tmp"' EXIT
"$tmp/mcheckclient" -addr 127.0.0.1:18288 -wait 15s
"$tmp/mcheckclient" -addr 127.0.0.1:18288 -trace "$tmp/daemon-trace.json" \
    "$tmp/corpus/sci"/*.c > /dev/null
go run ./cmd/obscheck -trace "$tmp/daemon-trace.json" > "$tmp/daemon-obscheck.txt"
cat "$tmp/daemon-obscheck.txt"
grep -q 'name="mcheckd"' "$tmp/daemon-obscheck.txt"
kill $ld 2>/dev/null || true
wait $ld 2>/dev/null || true
trap 'rm -rf "$tmp"' EXIT

# Provenance gate: a fresh depot, two runs of the same corpus. The
# warm re-run must print byte-identical reports, and its -stats dump
# must attribute every cache decision as a hit: a nonzero
# reason="hit" line and no other nonzero reason. Any other reason means
# the scheduler recomputed (or misattributed) work on identical
# inputs. The cold run, symmetrically, may only count reason="new".
# Per-reason attribution (version bump, options change, edit,
# eviction) is pinned by the sched package's Go tests.
rm -rf "$tmp/prov-depot"
"$tmp/mcheck" -flash -cache "$tmp/prov-depot" -stats "$tmp/corpus/sci"/*.c \
    > "$tmp/prov-cold.out" 2> "$tmp/prov-cold.stats" || true
"$tmp/mcheck" -flash -cache "$tmp/prov-depot" -stats "$tmp/corpus/sci"/*.c \
    > "$tmp/prov-warm.out" 2> "$tmp/prov-warm.stats" || true
cmp "$tmp/prov-cold.out" "$tmp/prov-warm.out"
grep '^sched_cache_decisions_total{' "$tmp/prov-cold.stats" "$tmp/prov-warm.stats"
# (`test -z` rather than `! grep`: set -e ignores a negated pipeline.)
grep -q '^sched_cache_decisions_total{reason="new"} [1-9]' "$tmp/prov-cold.stats"
test -z "$(grep '^sched_cache_decisions_total{' "$tmp/prov-cold.stats" \
    | grep -v 'reason="new"' | grep -v ' 0$')"
grep -q '^sched_cache_decisions_total{reason="hit"} [1-9]' "$tmp/prov-warm.stats"
test -z "$(grep '^sched_cache_decisions_total{' "$tmp/prov-warm.stats" \
    | grep -v 'reason="hit"' | grep -v ' 0$')"
# -explain must name a producer and checker version for a warm report.
"$tmp/mcheck" -flash -cache "$tmp/prov-depot" -explain "$tmp/corpus/sci"/*.c \
    > /dev/null 2> "$tmp/prov-explain.txt" || true
grep -q "producer=pid:" "$tmp/prov-explain.txt"
grep -q "decision=hit" "$tmp/prov-explain.txt"
# The bench trajectory must be appendable: one more entry than
# committed.
base_entries=$(grep -c '"unix"' BENCH_PR10.json)
cp BENCH_PR10.json "$tmp/traj.json"
go run ./cmd/paperbench -append "$tmp/traj.json"
test "$(grep -c '"unix"' "$tmp/traj.json")" -eq "$((base_entries + 1))"
