#!/bin/sh
# Runs the key hot-path benchmarks with -benchmem and emits a
# machine-readable JSON snapshot (ns/op, B/op, allocs/op per benchmark),
# the perf trajectory artefact the PR acceptance criteria compare against.
#
# Usage: scripts/bench.sh [output.json]
#
# Without an argument the output is one past the highest numbered snapshot
# already in results/ (BENCH_9.json present -> BENCH_10.json), so the
# trajectory grows without editing this script each PR — the stale
# hardcoded default bit two PRs in a row.
#
# Snapshot shape: a "host" provenance block (goos/goarch/cpu model, nproc,
# Go version, UTC date) plus a "benchmarks" object. Benchmark keys KEEP the
# Go -cpu/GOMAXPROCS name suffix (…-4), and every entry carries an explicit
# "gomaxprocs" field (the suffix, or 1 when Go omits it) — earlier
# snapshots stripped the suffix, which both lost the provenance of
# multi-core runs and would collide the -cpu sweep arms below into one key.
set -eu

cd "$(dirname "$0")/.."

if [ $# -ge 1 ]; then
    out="$1"
else
    last="$(ls results/BENCH_*.json 2>/dev/null |
        sed -n 's/.*BENCH_\([0-9][0-9]*\)\.json$/\1/p' | sort -n | tail -1)"
    out="results/BENCH_$((${last:-0} + 1)).json"
fi
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# Key benchmarks, lowest layer first: the exact-distance kernel sweep
# (full vs early-exit accumulation across view widths), kNN substrate
# (heap drain + the flat builder the plane serves), per-subspace detector
# scoring + the cache-hit path, the parallel grid plus the
# shared-vs-unshared plane mini-grid (BenchmarkRunGridKNN, the PR-5
# acceptance workload), the landmark-pruned versus exhaustive kNN arms on
# the Figure-9 reference workload (BenchmarkFigure9KNNPrune, the PR-8
# acceptance workload), the quantized-prefilter versus plain-band arms on
# the same workload (BenchmarkFigure9KNNQuant, the PR-10 acceptance
# workload), and the Beam/LOF pipeline cell (the paper's Figure 9 hot spot
# and the acceptance metric).
#
# The -cpu 1,2,4 sweeps are the first multi-core baselines: AllKNN, the
# prune arms, and the kNN grid parallelise over workers=GOMAXPROCS, so
# their scaling across the sweep is the worker-scaling record
# results/BENCH_NOTES.md tabulates. On a 1-vCPU box the >1 arms measure
# oversubscribed scheduling, not parallel speedup — the per-entry
# gomaxprocs field is what keeps those rows honest.
go test -run '^$' -bench 'BenchmarkSquaredEuclideanWithin' -benchmem -benchtime=200x ./internal/neighbors >>"$raw"
go test -run '^$' -bench 'BenchmarkAllKNN' -benchmem -benchtime=20x -cpu 1,2,4 ./internal/neighbors >>"$raw"
go test -run '^$' -bench 'BenchmarkDetectors1000x3|BenchmarkCachedDetectorHit' -benchmem -benchtime=10x ./internal/detector >>"$raw"
go test -run '^$' -bench 'BenchmarkRunGrid$' -benchmem -benchtime=2x ./internal/pipeline >>"$raw"
go test -run '^$' -bench 'BenchmarkRunGridKNN$' -benchmem -benchtime=2x -cpu 1,2,4 ./internal/pipeline >>"$raw"
go test -run '^$' -bench 'BenchmarkFigure9KNNPrune$' -benchmem -benchtime=30x -cpu 1,2,4 . >>"$raw"
go test -run '^$' -bench 'BenchmarkFigure9KNNQuant$' -benchmem -benchtime=30x ./internal/neighbors >>"$raw"
go test -run '^$' -bench 'BenchmarkFigure9/(Beam|RefOut)/LOF' -benchmem -benchtime=20x . >>"$raw"
# Stream arm: steady-state sliding-window evaluation on the reference
# workload (W=256, stride=64, 20d, LOF k=15), incremental engine vs cold
# rebuild — the PR-9 acceptance pair whose ratio check.sh gates at ≤ 0.6.
go test -run '^$' -bench 'BenchmarkStreamWindow' -benchmem -benchtime=100x ./internal/stream >>"$raw"

awk -v nproc="$(nproc 2>/dev/null || echo 0)" \
    -v gover="$(go env GOVERSION)" \
    -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
# Host provenance comes from the benchmark output itself (every go test
# invocation prints goos/goarch/cpu); the first sighting wins.
$1 == "goos:"   && goos == ""   { goos = $2 }
$1 == "goarch:" && goarch == "" { goarch = $2 }
/^cpu: / && cpu == "" { cpu = substr($0, 6) }
# The header must precede the entries, and this rule must precede the
# entry rule below (awk applies rules in order within one record): host
# fields are parsed from the first invocation block, printed once the
# first benchmark line arrives.
/^Benchmark/ && !headered {
    headered = 1
    printf("  \"host\": {\"goos\": \"%s\", \"goarch\": \"%s\", \"cpu\": \"%s\", \"nproc\": %d, \"go\": \"%s\", \"date\": \"%s\"},\n",
           goos, goarch, cpu, nproc, gover, date)
    printf("  \"benchmarks\": {\n")
}
/^Benchmark/ {
    name = $1
    procs = 1
    if (match(name, /-[0-9]+$/)) procs = substr(name, RSTART + 1)
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns     = $(i-1)
        if ($i == "B/op")      bytes  = $(i-1)
        if ($i == "allocs/op") allocs = $(i-1)
    }
    if (ns == "") next
    if (name in seen) next   # keep the first sighting of a repeated key
    seen[name] = 1
    if (count++) printf(",\n")
    printf("    \"%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"gomaxprocs\": %d}",
           name, ns, bytes, allocs, procs)
}
BEGIN { printf("{\n") }
END   { printf("\n  }\n}\n") }
' "$raw" >"$out"

echo "wrote $out"
