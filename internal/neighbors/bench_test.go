package neighbors

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

func benchPoints(n, d int) [][]float64 {
	rng := rand.New(rand.NewSource(1))
	points := make([][]float64, n)
	for i := range points {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		points[i] = p
	}
	return points
}

func BenchmarkKDTreeBuild(b *testing.B) {
	b.ReportAllocs()
	for _, n := range []int{256, 1024} {
		points := benchPoints(n, 3)
		b.Run(itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewKDTree(points)
			}
		})
	}
}

// BenchmarkAllKNN queries with the worker budget set to the live
// GOMAXPROCS, so a `go test -cpu 1,2,4` sweep measures the parallel
// substrate's actual scaling (at the default single-proc run it is the
// same serial query loop as always — the check.sh reference workload
// stays comparable across rounds).
func BenchmarkAllKNN(b *testing.B) {
	b.ReportAllocs()
	ctx := context.Background()
	workers := runtime.GOMAXPROCS(0)
	for _, d := range []int{2, 5, 20} {
		points := benchPoints(1000, d)
		b.Run("kdtree/"+itoa(d)+"d", func(b *testing.B) {
			b.ReportAllocs()
			if d > kdTreeMaxDim {
				b.Skip("kd-tree not selected at this dimensionality")
			}
			for i := 0; i < b.N; i++ {
				if _, _, _, err := AllKNNFlat(ctx, NewKDTree(points), 15, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("brute/"+itoa(d)+"d", func(b *testing.B) {
			b.ReportAllocs()
			ix := NewBruteForce(points)
			for i := 0; i < b.N; i++ {
				if _, _, _, err := AllKNNFlat(ctx, ix, 15, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSquaredEuclideanWithin sweeps the exact distance kernel alone —
// the innermost loop every tier above funnels into — so kernel-level
// regressions show up in the trajectory independent of index structure.
// The no-limit arm measures the full accumulation; the tight-limit arm
// measures the early-exit path the pruning tiers lean on (limit set to a
// quarter of the pair's distance, so the exit fires at the first check).
func BenchmarkSquaredEuclideanWithin(b *testing.B) {
	var sink float64
	for _, d := range []int{4, 8, 20, 64} {
		rows := benchPoints(2, d)
		a, c := rows[0], rows[1]
		full := SquaredEuclidean(a, c)
		b.Run("full/"+itoa(d)+"d", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v, _ := squaredEuclideanWithin(a, c, math.Inf(1))
				sink += v
			}
		})
		b.Run("earlyexit/"+itoa(d)+"d", func(b *testing.B) {
			b.ReportAllocs()
			limit := full / 4
			for i := 0; i < b.N; i++ {
				v, _ := squaredEuclideanWithin(a, c, limit)
				sink += v
			}
		})
	}
	if math.IsNaN(sink) {
		b.Fatal("kernel produced NaN")
	}
}

// BenchmarkAllKNNFlat measures the header-free flat builder the plane and
// detector hot paths consume; allocs/op must stay constant in n (the
// contract TestAllKNNAllocs pins).
func BenchmarkAllKNNFlat(b *testing.B) {
	for _, n := range []int{256, 1000} {
		points := benchPoints(n, 3)
		ix := NewIndex(points)
		b.Run(itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := AllKNNFlat(context.Background(), ix, 15, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	out := ""
	for v > 0 {
		out = string(rune('0'+v%10)) + out
		v /= 10
	}
	return out
}

// BenchmarkFigure9KNNQuant is the quantized prefilter's acceptance
// workload: the warm-index complete k=15 neighbourhood structure of the
// Figure-9 reference workload (figure9Points: 20d, n=1000), once through
// the coded brute-force index NewIndex builds for it and once through the
// plain exhaustive scan, so the ratio isolates exactly what the prefilter
// adds. scripts/check.sh gates on the quant/noquant ratio (≤ 0.85, best of
// three same-process rounds).
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
	b.Run("quant", func(b *testing.B) { run(b, newBruteForce(points)) })
	b.Run("noquant", func(b *testing.B) { run(b, NewBruteForce(points)) })
}

// maskSink keeps BenchmarkQuantRejectTile's kernel calls live.
var maskSink uint64

// BenchmarkQuantRejectTile measures the reject-mask kernel alone: one
// 64-row tile of coded random rows against one query row, at the RefOut
// pool views' 14d and the stream workload's 20d, with the limit at the
// tile's median bound sum so the mask is mixed. It reports ns per row.
func BenchmarkQuantRejectTile(b *testing.B) {
	for _, d := range []int{14, 20} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			points := benchPoints(quantTile+1, d)
			qp := newQuantParams(points, d)
			st := qp.stride
			codes := make([]uint8, len(points)*st)
			for j, p := range points {
				qp.encode(p, codes[j*st:(j+1)*st])
			}
			q, rows := codes[:st], codes[st:]
			sums := make([]int64, quantTile)
			for r := range sums {
				sums[r] = quantSqSumRef(q, rows[r*st:(r+1)*st])
			}
			sort.Slice(sums, func(a, c int) bool { return sums[a] < sums[c] })
			lim := sums[quantTile/2]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				maskSink ^= quantRejectTile(q, rows, quantTile, lim)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*quantTile), "ns/row")
		})
	}
}

// BenchmarkRefOutPoolKNN measures the seeded coded tier on the RefOut
// pool workload (refOutPool: 40 views of 14 of 20 dims, n = 1000, k = 15,
// serial). The plane arm answers every view through a fresh plane, so it
// pays the source's full-space seed build as well as the 40 seeded coded
// scans; the plain arm runs the unpruned exhaustive scan over the same
// views' rows. scripts/check.sh gates on the plane/plain ratio (≤ 0.50,
// best of three same-process rounds).
func BenchmarkRefOutPoolKNN(b *testing.B) {
	_, views := refOutPool(b)
	ctx := context.Background()
	b.Run("plane", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := NewPlane(0)
			for _, v := range views {
				if _, _, _, _, ok, err := p.AllKNN(ctx, v, 15, 1); err != nil || !ok {
					b.Fatalf("view %v: ok=%v err=%v", v.feats, ok, err)
				}
			}
		}
	})
	b.Run("plain", func(b *testing.B) {
		rows := make([][][]float64, len(views))
		for j, v := range views {
			rows[j] = sourceRows(v)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range rows {
				if _, _, _, err := AllKNNFlat(ctx, NewBruteForce(r), 15, 1); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkDeltaScan measures the delta engine's scan path as the
// Figure-9/10 grid exercises it: on a 300×10 source, one 3d and one 7d view
// at k = 15, each seeded from the full-space kNN. Every iteration starts
// from a fresh plane, so it pays the full-space seed build and both scans.
func BenchmarkDeltaScan(b *testing.B) {
	const n, d, k = 300, 10, 15
	points := benchPoints(n, d)
	cols := make([][]float64, d)
	for f := range cols {
		cols[f] = make([]float64, n)
		for i, p := range points {
			cols[f][i] = p[f]
		}
	}
	views := []benchView{{cols, []int{1, 4, 8}}, {cols, []int{0, 2, 3, 5, 6, 7, 9}}}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := NewPlane(0)
		for _, v := range views {
			if _, _, _, _, ok, err := p.AllKNN(ctx, v, k, 1); err != nil || !ok {
				b.Fatalf("view %v: ok=%v err=%v", v.feats, ok, err)
			}
		}
		if st := p.Stats().Delta; st.FullSeeded != len(views) {
			b.Fatalf("delta stats %+v, want %d seeded scans", st, len(views))
		}
	}
}

// benchView is a minimal in-package ColumnSource: the given features of a
// column-major source.
type benchView struct {
	src   [][]float64
	feats []int
}

func (v benchView) N() int                       { return len(v.src[0]) }
func (v benchView) Dim() int                     { return len(v.feats) }
func (v benchView) Column(j int) []float64       { return v.src[v.feats[j]] }
func (v benchView) Feature(j int) int            { return v.feats[j] }
func (v benchView) NumFeatures() int             { return len(v.src) }
func (v benchView) SourceColumn(f int) []float64 { return v.src[f] }
func (v benchView) SourceKey() string            { return "bench" }
func (v benchView) CacheKey() string             { return "bench|" + fmt.Sprint(v.feats) }
