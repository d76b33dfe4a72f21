#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload cold_suite --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the binary, the depots and the trace files all
# live under .bench_build/perfbench in the current directory, so a run
# writes nothing outside the checkout. Without the repository's own
# sources next to this directory the build fails and so does the run.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOTELEMETRY=off
export HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
