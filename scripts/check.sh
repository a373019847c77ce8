#!/bin/sh
# Tier-1 gate: vet, build, and the full test suite under the race detector.
# Every concurrent path in the repo (singleflight cache, parallel inner
# loops, the grid worker pool) is exercised by tests, so -race failing here
# means a real data race, not flakiness.
set -eux

cd "$(dirname "$0")/.."

go vet ./...
# Formatting: every tracked Go file must be gofmt-clean. git ls-files keeps
# the untracked .bench_build/ module cache out of the scan.
test -z "$(gofmt -l $(git ls-files '*.go'))"
go build ./...
# The quantized prefilter's reject-mask kernel is SSE2 assembly on amd64
# and a portable Go loop everywhere else; cross-checking arm64 keeps the
# fallback compiling (both commands work offline).
GOARCH=arm64 go vet ./internal/neighbors && GOARCH=arm64 go build ./...
go test -race ./...

# The benchmark harness is its own module, so the root vet and test sweeps
# above skip it. Its tests pin the neighbourhood plane's and delta engine's
# replay counters and the KD-tree and coded brute-force tier views the
# benchmark traces.
(cd perfbench && go vet ./...)
(cd perfbench && go test -count=1 ./...)

# Short fuzz smoke on the CSV parser: the only loader of external bytes.
# 10 seconds is enough to shake out parser regressions without slowing the
# gate; a reproducing input would land in internal/dataset/testdata/fuzz.
go test ./internal/dataset -run FuzzReadCSV -fuzz=FuzzReadCSV -fuzztime=10s

# WAL decoder fuzz smoke: recovery parses whatever bytes a crash left on
# disk, so the decoder must never panic, must truncate at the longest
# valid frame prefix, and must round-trip what it accepts bit-identically.
go test ./internal/durable -run FuzzWALDecode -fuzz=FuzzWALDecode -fuzztime=10s

# Quant-bound fuzz smoke: the quantized prefilter may only ever reject a
# candidate whose true squared distance exceeds the bound — 10 seconds of
# random shapes/values asserting the decoded bound never exceeds the exact
# distance and that the reject-mask kernel every coded scan runs
# (quantRejectTile, SSE2 on amd64) sets exactly the bits the portable
# reference sum says, for every tile length 1–64 at limits on and around
# each row's sum. A violation here is a wrong-answer bug (a neighbour
# silently dropped), so it gates alongside the parser fuzzers.
go test ./internal/neighbors -run FuzzQuantBoundSafe -fuzz=FuzzQuantBoundSafe -fuzztime=10s

# Crash drill: for every durable fault site and hit number, die there,
# recover, and require the recovered registry to equal the pre- or
# post-write state — run explicitly (and uncached) so the schedule cannot
# be pruned out of the -race sweep above.
go test -race -count=1 -run 'TestCrashSchedule|TestCrashDuringRecovery' ./internal/durable

# Benchmark smoke: one iteration of the grid benchmark proves the bench
# harness still compiles and runs end to end (full numbers come from
# scripts/bench.sh, which this deliberately does not replicate).
go test -run '^$' -bench 'BenchmarkRunGrid/workers=4' -benchtime=1x ./internal/pipeline
# Same smoke for the delta engine's scan layer (the grid's hottest
# neighbourhood path): one seeded 3d and one seeded 7d view per iteration.
go test -run '^$' -bench 'BenchmarkDeltaScan$' -benchtime=1x ./internal/neighbors
# And for the quantized prefilter's reject-mask kernel: one 64-row tile at
# 14d and 20d, reported in ns per row; no ceiling.
go test -run '^$' -bench 'BenchmarkQuantRejectTile' -benchtime=1x ./internal/neighbors
# And for an anexd explain request's search layer: Beam on a warm score
# memo (candidates, memo keys, Z-scores, ranking); no ceiling.
go test -run '^$' -bench 'BenchmarkBeamWarm$' -benchtime=1x ./internal/explain

# getns PATTERN prints the ns/op of the benchmark lines matching PATTERN.
getns() {
    awk -v pat="$1" '$1 ~ pat { for (i = 2; i <= NF; i++) if ($i == "ns/op") print $(i-1) }'
}

# Self-normalising ratio gates. Each runs one benchmark whose two sub-
# benchmarks are two arms of the same workload in the same process, so the
# arm/arm ratio is self-normalising: host-load swings hit both arms alike
# and cancel. The best (smallest) ratio of the rounds is gated against a
# ceiling — noise only ever shrinks the measured gap, so a real regression
# still cannot pass.
#
# ratio_gate LABEL BENCH PKG BENCHTIME ROUNDS NUM DEN CEILING FAIL
# runs BENCH (its regex; a trailing $ is dropped to name the sub-
# benchmarks) in PKG, ROUNDS times at -benchtime BENCHTIME, and fails
# with the printf message FAIL (given the ratio) when the best NUM/DEN
# ratio exceeds CEILING.
ratio_gate() {
    label=$1 bench=$2 pkg=$3 benchtime=$4 rounds=$5 num=$6 den=$7 ceil=$8 fail=$9
    prefix="^${bench%\$}"
    rbest=""
    round=1
    while [ "$round" -le "$rounds" ]; do
        out="$(go test -run '^$' -bench "$bench" -benchtime="$benchtime" "$pkg")"
        a="$(echo "$out" | getns "$prefix/$num")"
        b="$(echo "$out" | getns "$prefix/$den")"
        [ -n "$a" ] && [ -n "$b" ]
        ratio="$(awk -v a="$a" -v b="$b" 'BEGIN { printf("%.6f", a / b) }')"
        echo "round $round: $label $num ${a} ns/op, $den ${b} ns/op, ratio ${ratio}"
        if [ -z "$rbest" ] || awk -v a="$ratio" -v b="$rbest" 'BEGIN { exit !(a < b) }'; then
            rbest="$ratio"
        fi
        round=$((round + 1))
    done
    awk -v ratio="$rbest" -v ceil="$ceil" -v fail="$fail" -v label="$label" -v arms="$num/$den" 'BEGIN {
        if (ratio > ceil) {
            printf(fail "\n", ratio)
            exit 1
        }
        printf("%s: %s ratio %.4f (gate %s)\n", label, arms, ratio, ceil)
    }'
}

# Figure-9 Beam/LOF perf gate: BenchmarkFigure9BeamGate (root package)
# runs the cold Beam/LOF Figure-9 cell (about 80% of it the plane's 2d
# sweep) and a fixed reference on the same 300x10 data, a serial brute-force
# k=15 all-points kNN over one 2d view, in the same process. Gate on
# beam/ref <= 21.8: the best-of-3 ratio at commit 4d45892 on a 2-vCPU VM
# (eight best-of-3 runs read 17.4-21.3, median 19.8) plus the 10%
# tolerance the gate has always allowed. The arms share only the
# k-nearest list insert, so a change to that insert moves both. Both run
# for a wall-clock benchtime: the reference costs ~1 ms an iteration, too
# few samples at a fixed count. Best of three rounds.
ratio_gate "figure9 Beam/LOF" 'BenchmarkFigure9BeamGate$' . 1s 3 beam ref 21.8 \
    'FAIL: Beam/LOF regressed: beam/ref ratio %.4f > 21.8'

# RunGrid mini-workload perf gate: BenchmarkRunGridKNN runs the Figure-9
# mini-grid with all three kNN detectors twice in the same process — once
# with the detectors sharing one neighbourhood plane, once with a private
# plane each. The plane's whole point is cutting duplicated kNN work, so
# gate on shared ≤ 0.75× unshared (the ≥25% wall-clock reduction the PR-5
# acceptance criteria demand). Best of two rounds.
ratio_gate "grid kNN plane" 'BenchmarkRunGridKNN$' ./internal/pipeline 2x 2 shared unshared 0.75 \
    'FAIL: shared plane saves <25%% on the kNN grid: shared/unshared ratio %.4f > 0.75'

# Quantized-prefilter perf gate: BenchmarkFigure9KNNQuant (in
# internal/neighbors, where the coded index has an unexported constructor)
# builds the complete k=15 neighbourhood structure of the Figure-9
# reference workload (20d, n=1000 — the widest views the kNN detectors
# score) twice in the same process — once through the coded brute-force
# index NewIndex builds for wide views, once through the plain exhaustive
# scan (candidates go straight to the exact distance kernel). Both arms are
# warm-index. Gate on quant ≤ 0.85× noquant — the ≥15% speedup the
# prefilter was accepted on. Best of three rounds. Neighbour-set
# bit-identicality between the two arms is enforced separately by the
# deterministic property tests and the fuzz smoke below, not by this
# timing gate.
ratio_gate "quant prefilter" 'BenchmarkFigure9KNNQuant$' ./internal/neighbors 30x 3 quant noquant 0.85 \
    'FAIL: quantized prefilter saves <15%% on Figure-9 kNN: quant/noquant ratio %.4f > 0.85'

# Seeded coded-tier perf gate: BenchmarkRefOutPoolKNN answers 40 RefOut
# pool views (14 of 20 dims, n=1000, k=15, serial) twice in the same
# process — once through a fresh neighbourhood plane, whose coded brute-
# force scans start from the source's full-space neighbours (the seed
# build is inside the timing), once through the plain exhaustive scan over
# the same views' rows. Gate on plane ≤ 0.50× plain (rounds measured 0.38–0.49
# on a 2-vCPU VM; the unseeded coded scan read 0.67–0.74 and fails).
# Best of three rounds. Bit-identicality of the seeded scan is pinned
# separately by TestSeededCodedScanBitIdentical, not by this timing gate.
ratio_gate "seeded coded tier" 'BenchmarkRefOutPoolKNN$' ./internal/neighbors 2x 3 plane plain 0.50 \
    'FAIL: seeded coded scan saves <50%% on the RefOut pool: plane/plain ratio %.4f > 0.50'

# Incremental-stream perf gate: BenchmarkStreamWindow pushes the reference
# stream workload (W=256, stride=64, 20d, LOF k=15) through the sliding-
# window monitor twice in the same process — once with the incremental
# neighbourhood engine, once rebuilding the window from scratch every
# stride. Gate on incremental ≤ 0.60× rebuild — the ≥1.6× steady-state
# speedup the PR-9 acceptance criteria demand (measured ~0.51 at recording
# time). Best of three rounds. Alert bit-identicality between the two arms
# is enforced separately by the deterministic parity tests in
# internal/stream, not by this timing gate.
ratio_gate "stream window" 'BenchmarkStreamWindow' ./internal/stream 100x 3 incremental rebuild 0.60 \
    'FAIL: incremental stream engine saves <40%% per stride: incremental/rebuild ratio %.4f > 0.60'

# Repair-fraction gate: independent of timing, the incremental engine must
# repair only a small fraction of surviving k-lists per stride on the same
# reference workload — the structural reason the ratio gate above holds.
# TestStreamRepairFractionReference pins a deterministic ceiling of 0.05
# (measured 0.024 with a seeded stream); a weakened trusted-prefix bound
# fails this gate even on an idle, fast box.
go test -count=1 -run 'TestStreamRepairFractionReference$' ./internal/stream

# Survivor-fraction and scan-fraction gates: the quantized prefilter's
# structural gates — on the same Figure-9 reference workload, at most 15%
# of the candidates the 8-bit code bound tests may survive to the exact
# distance kernel, and, on the index NewIndex selects, at most 60% of all
# candidates may reach it; on 40 RefOut pool views through the plane,
# whose coded scans are seeded, queries may average at most 40 exact-
# kernel calls (an unseeded scan pays ~126) and the ledger may never count
# more bound-tested candidates than candidates. Deterministic in the data
# and the code construction, so a bound loosened by a quantisation change,
# or seeds that stop reaching the scan, fail here regardless of host
# timing.
go test -count=1 -run 'TestQuantSurvivorFractionFigure9$|TestPruneEffectivenessFigure9$|TestRefOutPoolScanGate$' ./internal/neighbors

# Dedup-factor gate: the plane must collapse the grid's repeated (dataset,
# subspace) kNN queries at least 1.5×. TestGridPlaneDedupFactor asserts
# exactly that on the mini-grid; run it explicitly (and uncached) so a
# dedup regression fails the gate even if someone prunes the -race sweep.
go test -count=1 -run 'TestGridPlaneDedupFactor$' ./internal/pipeline

# anexd smoke: boot the explanation server in-process under the race
# detector, register a dataset over HTTP, run concurrent explains, and pin
# the service contract — warm-path dedup factor > 1 on a repeated request,
# 429 + Retry-After under saturation, and a clean (exit-0) drain of
# in-flight requests on a real SIGTERM. TestAnexdChaosKill9Recovery is the
# chaos smoke: a real anexd binary SIGKILLed mid-registration-loop must
# come back from its -data-dir serving every acked dataset byte-
# identically to the retrying client.
go test -race -count=1 -run 'TestAnexd' ./cmd/anexd
