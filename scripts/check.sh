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
go test -race ./...

# The benchmark harness is its own module, so the root sweep above skips
# it. Its tests pin the neighbourhood plane's and delta engine's replay
# counters and the KD-tree and coded brute-force tier views the benchmark
# traces.
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
# random shapes/values asserting the SSE2 kernel equals the portable
# reference and the decoded bound never exceeds the exact distance. A
# violation here is a wrong-answer bug (a neighbour silently dropped), so
# it gates alongside the parser fuzzers.
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

# Figure-9 Beam/LOF perf gate: fail if the acceptance metric regresses >10%
# versus the committed same-host baseline (results/BENCH_11.json, recorded
# by scripts/bench.sh on the 2-vCPU box this gate runs on). The previous
# baseline, BENCH_10, came from a 1-vCPU box where the reference below ran
# serially; here it ran on two cores, so the ratio read 3.96-4.67 against
# a 2.78 ceiling on unchanged code and the gate failed whatever the diff.
# The recording box is a shared VM whose effective speed swings with host load
# (see results/BENCH_NOTES.md), so raw ns/op from different moments are not
# comparable. Interference slows all code about equally, so each round
# measures Beam/LOF AND a fixed reference workload (brute-force 2d kNN, a
# pure distance loop untouched by pipeline changes) back to back and gates
# on their RATIO against the baseline's ratio: machine speed cancels, a
# structural regression of Beam/LOF does not. The best of three rounds is
# compared — noise only ever inflates a round, so the minimum is the honest
# estimate, and a real >10% regression still cannot pass.
# The reference runs at -cpu 1 (its serial BENCH_11 entry): it
# parallelises over GOMAXPROCS while the Beam/LOF cell is serial, so a
# parallel reference slowed 2x whenever the shared VM withheld its second
# vCPU — a deflated ratio that would let a regression through, since the
# gate keeps the minimum.
# Baseline lookup. Snapshot keys keep the Go GOMAXPROCS name suffix (…-2),
# so each side is looked up under the exact name this run printed: the
# comparison is always between runs at the same GOMAXPROCS, and a host
# with no matching entry fails loudly instead of comparing across counts.
getbase() {
    awk -v pat="\"$1\": " 'index($0, pat) {
        if (match($0, /"ns_per_op": [0-9.]+/)) print substr($0, RSTART+13, RLENGTH-13)
    }' results/BENCH_11.json
}
getns() {
    awk -v pat="$1" '$1 ~ pat { for (i = 2; i <= NF; i++) if ($i == "ns/op") print $(i-1) }'
}
getkey() {
    awk -v pat="$1" '$1 ~ pat && / ns\/op/ { print $1 }'
}
best=""
for i in 1 2 3; do
    # Both sides run at 20x — the same benchtime bench.sh records them
    # at, and enough samples (~100-200ms each) that a single descheduling
    # blip cannot swing either side of the ratio by itself. (At the old
    # 5x, single rounds of each side were observed to jitter ±25%.)
    beamout="$(go test -run '^$' -bench 'BenchmarkFigure9/Beam/LOF$' -benchtime=20x .)"
    refout="$(go test -run '^$' -bench 'BenchmarkAllKNN/brute/2d$' -benchtime=20x -cpu 1 ./internal/neighbors)"
    beam="$(echo "$beamout" | getns '^BenchmarkFigure9')"
    ref="$(echo "$refout" | getns '^BenchmarkAllKNN')"
    beam_key="$(echo "$beamout" | getkey '^BenchmarkFigure9')"
    ref_key="$(echo "$refout" | getkey '^BenchmarkAllKNN')"
    [ -n "$beam" ] && [ -n "$ref" ]
    ratio="$(awk -v b="$beam" -v r="$ref" 'BEGIN { printf("%.6f", b / r) }')"
    echo "round $i: beam ${beam} ns/op, ref ${ref} ns/op, ratio ${ratio}"
    if [ -z "$best" ] || awk -v a="$ratio" -v b="$best" 'BEGIN { exit !(a < b) }'; then
        best="$ratio"
    fi
done
beam_base="$(getbase "$beam_key")"
ref_base="$(getbase "$ref_key")"
if [ -z "$beam_base" ] || [ -z "$ref_base" ]; then
    echo "FAIL: results/BENCH_11.json has no same-host baseline for $beam_key / $ref_key"
    exit 1
fi
echo "figure9 Beam/LOF: best ratio ${best}, baseline ratio $(awk -v b="$beam_base" -v r="$ref_base" 'BEGIN { printf("%.6f", b / r) }')"
awk -v ratio="$best" -v bb="$beam_base" -v rb="$ref_base" 'BEGIN {
    if (ratio > (bb / rb) * 1.10) {
        printf("FAIL: Beam/LOF regressed: ratio %.4f > baseline %.4f * 1.10\n", ratio, bb / rb)
        exit 1
    }
}'

# RunGrid mini-workload perf gate: BenchmarkRunGridKNN runs the Figure-9
# mini-grid with all three kNN detectors twice in the same process — once
# with the detectors sharing one neighbourhood plane, once with a private
# plane each — so the shared/unshared ratio is self-normalising: host-load
# swings hit both arms alike and cancel. The plane's whole point is cutting
# duplicated kNN work, so gate on shared ≤ 0.75× unshared (the ≥25%
# wall-clock reduction the PR-5 acceptance criteria demand). Best of two
# rounds, same rationale as above: noise only ever shrinks the gap.
bestgrid=""
for i in 1 2; do
    gridout="$(go test -run '^$' -bench 'BenchmarkRunGridKNN$' -benchtime=2x ./internal/pipeline)"
    shared="$(echo "$gridout" | getns '^BenchmarkRunGridKNN/shared')"
    unshared="$(echo "$gridout" | getns '^BenchmarkRunGridKNN/unshared')"
    [ -n "$shared" ] && [ -n "$unshared" ]
    gridratio="$(awk -v s="$shared" -v u="$unshared" 'BEGIN { printf("%.6f", s / u) }')"
    echo "round $i: grid shared ${shared} ns/op, unshared ${unshared} ns/op, ratio ${gridratio}"
    if [ -z "$bestgrid" ] || awk -v a="$gridratio" -v b="$bestgrid" 'BEGIN { exit !(a < b) }'; then
        bestgrid="$gridratio"
    fi
done
awk -v ratio="$bestgrid" 'BEGIN {
    if (ratio > 0.75) {
        printf("FAIL: shared plane saves <25%% on the kNN grid: shared/unshared ratio %.4f > 0.75\n", ratio)
        exit 1
    }
    printf("grid kNN plane: shared/unshared ratio %.4f (gate 0.75)\n", ratio)
}'

# Quantized-prefilter perf gate: BenchmarkFigure9KNNQuant (in
# internal/neighbors, where the coded index has an unexported constructor)
# builds the complete k=15 neighbourhood structure of the Figure-9
# reference workload (20d, n=1000 — the widest views the kNN detectors
# score) twice in the same process — once through the coded brute-force
# index NewIndex builds for wide views, once through the plain exhaustive
# scan (candidates go straight to the exact distance kernel) — so the
# quant/noquant ratio is self-normalising against host load, same as the
# gates above. Both arms are warm-index. Gate on quant ≤ 0.85× noquant —
# the ≥15% speedup the prefilter was accepted on. Best of three rounds:
# noise only ever shrinks the measured gap. Neighbour-set
# bit-identicality between the two arms is enforced separately by the
# deterministic property tests and the fuzz smoke below, not by this
# timing gate.
bestquant=""
for i in 1 2 3; do
    quantout="$(go test -run '^$' -bench 'BenchmarkFigure9KNNQuant$' -benchtime=30x ./internal/neighbors)"
    quant="$(echo "$quantout" | getns '^BenchmarkFigure9KNNQuant/quant')"
    noquant="$(echo "$quantout" | getns '^BenchmarkFigure9KNNQuant/noquant')"
    [ -n "$quant" ] && [ -n "$noquant" ]
    quantratio="$(awk -v q="$quant" -v u="$noquant" 'BEGIN { printf("%.6f", q / u) }')"
    echo "round $i: quant ${quant} ns/op, noquant ${noquant} ns/op, ratio ${quantratio}"
    if [ -z "$bestquant" ] || awk -v a="$quantratio" -v b="$bestquant" 'BEGIN { exit !(a < b) }'; then
        bestquant="$quantratio"
    fi
done
awk -v ratio="$bestquant" 'BEGIN {
    if (ratio > 0.85) {
        printf("FAIL: quantized prefilter saves <15%% on Figure-9 kNN: quant/noquant ratio %.4f > 0.85\n", ratio)
        exit 1
    }
    printf("quant prefilter: quant/noquant ratio %.4f (gate 0.85)\n", ratio)
}'

# Incremental-stream perf gate: BenchmarkStreamWindow pushes the reference
# stream workload (W=256, stride=64, 20d, LOF k=15) through the sliding-
# window monitor twice in the same process — once with the incremental
# neighbourhood engine, once rebuilding the window from scratch every
# stride — so the incremental/rebuild ratio is self-normalising against
# host load, same as the grid and quant gates above. Gate on incremental
# ≤ 0.60× rebuild — the ≥1.6× steady-state speedup the PR-9 acceptance
# criteria demand (measured ~0.51 at recording time). Best of three
# rounds: noise only ever shrinks the measured gap. Alert bit-identicality
# between the two arms is enforced separately by the deterministic parity
# tests in internal/stream, not by this timing gate.
beststream=""
for i in 1 2 3; do
    streamout="$(go test -run '^$' -bench 'BenchmarkStreamWindow' -benchtime=100x ./internal/stream)"
    streaminc="$(echo "$streamout" | getns '^BenchmarkStreamWindow/incremental')"
    streamreb="$(echo "$streamout" | getns '^BenchmarkStreamWindow/rebuild')"
    [ -n "$streaminc" ] && [ -n "$streamreb" ]
    streamratio="$(awk -v a="$streaminc" -v r="$streamreb" 'BEGIN { printf("%.6f", a / r) }')"
    echo "round $i: stream incremental ${streaminc} ns/op, rebuild ${streamreb} ns/op, ratio ${streamratio}"
    if [ -z "$beststream" ] || awk -v a="$streamratio" -v b="$beststream" 'BEGIN { exit !(a < b) }'; then
        beststream="$streamratio"
    fi
done
awk -v ratio="$beststream" 'BEGIN {
    if (ratio > 0.60) {
        printf("FAIL: incremental stream engine saves <40%% per stride: incremental/rebuild ratio %.4f > 0.60\n", ratio)
        exit 1
    }
    printf("stream window: incremental/rebuild ratio %.4f (gate 0.60)\n", ratio)
}'

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
# candidates may reach it. Deterministic in the data and the code
# construction, so a bound loosened by a quantisation change fails here
# regardless of host timing.
go test -count=1 -run 'TestQuantSurvivorFractionFigure9$|TestPruneEffectivenessFigure9$' ./internal/neighbors

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
