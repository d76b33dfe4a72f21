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
# it fails CI instead of the next benchmark run. Its tests assert the
# replay stays faithful to the pipeline, so a sched or depot change that
# breaks that also fails here.
(cd perfbench && go vet ./...)
(cd perfbench && go test ./...)

go vet ./...
test -z "$(gofmt -l .)"
go test -race ./...

# Incremental-analysis gate: checking the generated corpus twice
# through one artifact depot must print byte-identical reports — the
# second (warm) run is served from the cache, and a divergence means
# the depot keys miss an input the checkers depend on. Cold runs on one
# worker and warm on four, so the stream must also not depend on how
# the pool interleaves tasks. mcheck exits 1 when it reports, so
# `|| true` keeps set -e happy.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/flashgen -o "$tmp/corpus"
go build -o "$tmp/mcheck" ./cmd/mcheck
for proto in bitvector dyn_ptr sci coma rac common; do
    "$tmp/mcheck" -flash -j 1 -cache "$tmp/depot" "$tmp/corpus/$proto"/*.c \
        > "$tmp/cold.$proto" || true
    "$tmp/mcheck" -flash -j 4 -cache "$tmp/depot" "$tmp/corpus/$proto"/*.c \
        > "$tmp/warm.$proto" || true
    cmp "$tmp/cold.$proto" "$tmp/warm.$proto"
done

# Two-pass lanes gate: the paper's local/global interface must give the
# pipeline's lane answer. For each protocol, -emit writes the local
# pass's per-function flow graphs and -link runs the global lane pass
# over them; its [lanes] lines must equal those of -flash on the same
# files, in the same (position) order, and must not be empty (every
# generated protocol has lane findings). Both runs name the files by
# the same relative paths.
for proto in bitvector dyn_ptr sci coma rac common; do
    (
        cd "$tmp/corpus/$proto"
        "$tmp/mcheck" -emit "$tmp/sums.$proto.json" *.c > /dev/null
        { "$tmp/mcheck" -link "$tmp/sums.$proto.json" || true; } \
            | grep ' \[lanes\] ' > "$tmp/lanes-link.$proto"
        { "$tmp/mcheck" -flash *.c || true; } \
            | grep ' \[lanes\] ' > "$tmp/lanes-flash.$proto"
    )
    test -s "$tmp/lanes-link.$proto"
    cmp "$tmp/lanes-link.$proto" "$tmp/lanes-flash.$proto"
done

# metalint gate: the checker linter lints and nothing else. The
# built-in suite must lint clean (exit 0), the broken fixture must fail
# on its lint errors (exit 1), and -triage must be refused as an
# unknown flag (exit 2): reports are ranked only by mcheck -triage.
go build -o "$tmp/metalint" ./cmd/metalint
"$tmp/metalint" -flash > /dev/null
rc=0; "$tmp/metalint" internal/lint/testdata/broken.metal > /dev/null || rc=$?
test "$rc" -eq 1
rc=0; "$tmp/metalint" -triage > /dev/null 2>&1 || rc=$?
test "$rc" -eq 2

# Depot-churn gate: fill a tiny depot past its byte budget and
# let LRU eviction run between a cold and a warm pass of every
# protocol. Evicted artifacts recompute, surviving ones replay, and
# either way the warm report stream must stay byte-identical to cold;
# the -metrics dump must attribute a nonzero depot_gc_evicted_bytes_total
# or the budget never actually evicted and the gate is vacuous.
for proto in bitvector dyn_ptr sci coma rac common; do
    "$tmp/mcheck" -flash -cache "$tmp/churn-depot" \
        -cache-max-bytes 65536 "$tmp/corpus/$proto"/*.c \
        > "$tmp/churn-cold.$proto" || true
    "$tmp/mcheck" -flash -cache "$tmp/churn-depot" \
        -cache-max-bytes 65536 -metrics "$tmp/churn-metrics.$proto" \
        "$tmp/corpus/$proto"/*.c > "$tmp/churn-warm.$proto" || true
    cmp "$tmp/churn-cold.$proto" "$tmp/churn-warm.$proto"
done
# (`test -z` rather than `! grep`: set -e ignores a negated pipeline.)
grep "^depot_gc_evicted_bytes_total" "$tmp/churn-metrics.common"
test -z "$(grep -x "depot_gc_evicted_bytes_total 0" "$tmp/churn-metrics.common")"

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

# Line-marker fuzz: cpp's markers must read back as the file names and
# lines it wrote, for any name, and any other '#' line must take the
# lexer's directive-error path without a panic. Same short budget.
go test -run FuzzLineMarker -fuzz FuzzLineMarker -fuzztime 15s -fuzzminimizetime 1x ./internal/cc/lexer/

# Token-buffer fuzz: core.Load lexes every unit into one reused token
# buffer; for 2-5 units cut from seed-1 protocol sources, with fuzzed
# byte edits and order, it must load the same diagnostics and the same
# fingerprints as a fresh lexer.All() slice per unit. Same short budget.
go test -run FuzzLoadUnits -fuzz FuzzLoadUnits -fuzztime 15s -fuzzminimizetime 1x ./internal/core/

# Engine-equivalence fuzz: the dataflow engine must report exactly the
# (position, message) multiset the every-path walk reports, for every
# SM checker over generated protocols. Same short budget.
go test -run FuzzEngineVsPaths -fuzz FuzzEngineVsPaths -fuzztime 15s -fuzzminimizetime 1x ./internal/checkers/

# Matcher-equivalence fuzz: match.First and match.Find must agree with
# the clone-per-candidate reference matcher kept in the test, for the
# six SM checkers' patterns over seed-1 protocol statements, and must
# never change the caller's Env. Same short budget.
go test -run FuzzMatchFirst -fuzz FuzzMatchFirst -fuzztime 15s -fuzzminimizetime 1x ./internal/match/

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
# warm re-run must print byte-identical reports, and its -metrics dump
# must attribute every cache decision as a hit: a nonzero
# reason="hit" line and no other nonzero reason. Any other reason means
# the scheduler recomputed (or misattributed) work on identical
# inputs. The cold run, symmetrically, may only count reason="new".
# Per-reason attribution (version bump, options change, edit,
# eviction) is pinned by the sched package's Go tests.
rm -rf "$tmp/prov-depot"
"$tmp/mcheck" -flash -cache "$tmp/prov-depot" -metrics "$tmp/prov-cold.prom" \
    "$tmp/corpus/sci"/*.c > "$tmp/prov-cold.out" || true
"$tmp/mcheck" -flash -cache "$tmp/prov-depot" -metrics "$tmp/prov-warm.prom" \
    "$tmp/corpus/sci"/*.c > "$tmp/prov-warm.out" || true
cmp "$tmp/prov-cold.out" "$tmp/prov-warm.out"
grep '^sched_cache_decisions_total{' "$tmp/prov-cold.prom" "$tmp/prov-warm.prom"
# (`test -z` rather than `! grep`: set -e ignores a negated pipeline.)
grep -q '^sched_cache_decisions_total{reason="new"} [1-9]' "$tmp/prov-cold.prom"
test -z "$(grep '^sched_cache_decisions_total{' "$tmp/prov-cold.prom" \
    | grep -v 'reason="new"' | grep -v ' 0$')"
grep -q '^sched_cache_decisions_total{reason="hit"} [1-9]' "$tmp/prov-warm.prom"
test -z "$(grep '^sched_cache_decisions_total{' "$tmp/prov-warm.prom" \
    | grep -v 'reason="hit"' | grep -v ' 0$')"
# -explain must name a producer and checker version for a warm report.
"$tmp/mcheck" -flash -cache "$tmp/prov-depot" -explain "$tmp/corpus/sci"/*.c \
    > /dev/null 2> "$tmp/prov-explain.txt" || true
grep -q "producer=pid:" "$tmp/prov-explain.txt"
grep -q "decision=hit" "$tmp/prov-explain.txt"
# Under -triage, -explain must still answer per report: a warm sci run
# (the triage depot above) prints exactly one explain line per report
# line, and every explain line names its cache decision.
"$tmp/mcheck" -flash -triage sym -explain -cache "$tmp/tri-depot" "$tmp/corpus/sci"/*.c \
    > "$tmp/tri-explain.out" 2> "$tmp/tri-explain.txt" || true
reports=$(wc -l < "$tmp/tri-explain.out")
test "$reports" -gt 0
test "$(grep -c '^explain: ' "$tmp/tri-explain.txt")" -eq "$reports"
test "$(grep -c ' decision=' "$tmp/tri-explain.txt")" -eq "$reports"
# The bench trajectory must be appendable: one more entry than
# committed.
base_entries=$(grep -c '"unix"' BENCH_PR10.json)
cp BENCH_PR10.json "$tmp/traj.json"
go run ./cmd/paperbench -append "$tmp/traj.json"
test "$(grep -c '"unix"' "$tmp/traj.json")" -eq "$((base_entries + 1))"
