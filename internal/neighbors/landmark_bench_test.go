package neighbors

import (
	"context"
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkPruneTune sweeps the landmark count on the Figure-9 reference
// workload (20d, n=1000, k=15) against the unpruned scan — the tuning
// harness behind the automatic landmark pick and the check.sh prune gate.
// Indexes are built outside the timer: the plane builds each index once
// per (dataset, subspace) and serves every detector and request from it,
// so steady-state per-sweep query cost is the number that matters.
func BenchmarkPruneTune(b *testing.B) {
	points := figure9Points(b)
	run := func(b *testing.B, ix Index) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := AllKNNFlat(context.Background(), ix, 15, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("brute", func(b *testing.B) { run(b, NewBruteForce(points)) })
	b.Run("auto", func(b *testing.B) { run(b, newLandmarkIndex(points, 0, quantTileDefault)) })
	for _, nl := range []int{32, 64, 96, 128, 192} {
		b.Run(fmt.Sprintf("nl%d", nl), func(b *testing.B) {
			run(b, newLandmarkIndex(points, nl, quantTileDefault))
		})
	}
}

// BenchmarkFigure9KNNQuant is the quantized prefilter's acceptance
// workload: the warm-index complete k=15 neighbourhood structure of the
// Figure-9 reference workload (figure9Points: 20d, n=1000), with both arms
// running the LANDMARK tier — one with the code-bound tile pass under the
// band scan, one going straight to the exact kernel — so the ratio isolates
// exactly what the prefilter adds on top of the tier it composes with.
// scripts/check.sh gates on the quant/noquant ratio (≤ 0.85, best of three
// same-process rounds).
func BenchmarkFigure9KNNQuant(b *testing.B) {
	points := figure9Points(b)
	run := func(b *testing.B, ix Index) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := AllKNNFlat(context.Background(), ix, 15, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("quant", func(b *testing.B) { run(b, newLandmarkIndex(points, 0, quantTileDefault)) })
	b.Run("noquant", func(b *testing.B) { run(b, newLandmarkIndex(points, 0, 0)) })
}

// BenchmarkFigure9KNNPrune is the landmark-pruned candidate tier's
// acceptance workload: the complete k=15 neighbourhood structure of the
// paper's 1000-point 20d Figure-9 dataset (figure9Points) — the widest,
// most expensive views the kNN detectors score — with the tier on versus
// off. Both arms are WARM-INDEX (built once outside the timer): the
// neighbourhood plane builds each index once per (dataset, subspace) and
// answers every detector and request from it, so steady-state query cost
// is what the tier actually changes; a cold arm would mostly measure the
// one-off landmark selection the plane amortises away. scripts/check.sh
// gates on the pruned/unpruned ratio of this benchmark (≤ 0.75), which
// self-normalises against host-load swings. The worker budget follows the
// live GOMAXPROCS, so a `go test -cpu 1,2,4` sweep measures real scaling.
func BenchmarkFigure9KNNPrune(b *testing.B) {
	points := figure9Points(b)
	workers := runtime.GOMAXPROCS(0)
	run := func(b *testing.B, ix Index) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := AllKNNFlat(context.Background(), ix, 15, workers); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("pruned", func(b *testing.B) { run(b, newLandmarkIndex(points, 0, quantTileDefault)) })
	b.Run("unpruned", func(b *testing.B) { run(b, NewBruteForce(points)) })
}
