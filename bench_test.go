// Benchmarks regenerating (in miniature) every table and figure of the
// paper's evaluation, plus ablation benches for the design choices called
// out in DESIGN.md. The full-size experiment harness is cmd/anexbench;
// these benches exercise the same code paths at benchmark-friendly sizes
// and report MAP as a custom metric where effectiveness matters.
package anex_test

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"anex"
	"anex/internal/detector"
	"anex/internal/experiments"
	"anex/internal/explain"
	"anex/internal/neighbors"
	"anex/internal/pipeline"
	"anex/internal/subspace"
	"anex/internal/summarize"
	"anex/internal/synth"
)

var bctx = context.Background()

// benchDataset returns a 1000×10 view-friendly dataset with planted 2d/3d
// subspace outliers — the sample size of the paper's timing experiments.
func benchDataset(b *testing.B, n, d int) (*anex.Dataset, *anex.GroundTruth) {
	b.Helper()
	ds, gt, err := anex.GenerateSubspaceOutliers(anex.SubspaceOutlierConfig{
		Name:                "bench",
		TotalDims:           d,
		SubspaceDims:        []int{2, 3},
		N:                   n,
		OutliersPerSubspace: 5,
		Seed:                1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return ds, gt
}

// BenchmarkDetectorPerSubspace reproduces the Section 4.3 measurement "to
// score a single subspace LOF needed 0.05, iForest 0.2 and Fast ABOD 2
// seconds approximately" — a 1000-point 3d view per detector.
func BenchmarkDetectorPerSubspace(b *testing.B) {
	b.ReportAllocs()
	ds, _ := benchDataset(b, 1000, 10)
	view := ds.View(anex.NewSubspace(2, 3, 4))
	dets := []anex.Detector{
		anex.NewLOF(15),
		anex.NewFastABOD(10),
		anex.NewIsolationForest(1),
	}
	for _, det := range dets {
		b.Run(det.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				det.Scores(bctx, view)
			}
		})
	}
}

// BenchmarkTable1 regenerates the dataset-characteristics table from a
// freshly generated miniature testbed.
func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		td, err := synth.BuildSynthetic(synth.SubspaceConfig{
			Name: "t1", TotalDims: 10, SubspaceDims: []int{2, 3},
			N: 300, OutliersPerSubspace: 5, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		s := &experiments.Session{
			Cfg: experiments.Config{Scale: synth.ScaleSmall, Seed: int64(i)},
			TB:  &experiments.Testbed{Synthetic: []synth.TestbedDataset{td}},
		}
		if tbl := s.Table1(); len(tbl.Rows) != 1 {
			b.Fatal("table 1 malformed")
		}
	}
}

// BenchmarkFigure8 regenerates the relevant-subspace-dimensionality figure.
func BenchmarkFigure8(b *testing.B) {
	b.ReportAllocs()
	td, err := synth.BuildSynthetic(synth.SubspaceConfig{
		Name: "f8", TotalDims: 12, SubspaceDims: []int{2, 3, 4},
		N: 300, OutliersPerSubspace: 5, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	s := &experiments.Session{
		Cfg: experiments.Config{Scale: synth.ScaleSmall},
		TB:  &experiments.Testbed{Synthetic: []synth.TestbedDataset{td}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := s.Figure8(); len(tbl.Rows) != 1 {
			b.Fatal("figure 8 malformed")
		}
	}
}

// figure9Cell runs one (explainer, detector) cell of Figure 9 and reports
// MAP alongside the timing. Every iteration is a COLD cell: a fresh
// detector with a fresh score memo and a fresh private neighbourhood
// plane, so ns/op measures the paper's per-cell cost and is independent
// of -benchtime. (The previous shape built the caches once outside the
// loop, so ns/op was really first-iteration cost amortised over b.N.)
func figure9Cell(b *testing.B, mk func(det anex.Detector) anex.PointExplainer, mkDet func() anex.Detector) {
	ds, gt := benchDataset(b, 300, 10)
	var mapSum float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det := mkDet()
		if ns, ok := det.(interface {
			SetNeighbors(*anex.NeighborhoodPlane)
		}); ok {
			ns.SetNeighbors(anex.NewNeighborhoodPlane(0))
		}
		expl := mk(anex.CachedDetector(det))
		res := anex.ExplainOutliers(bctx, ds, gt, det.Name(), expl, 2)
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		mapSum += res.MAP
	}
	b.ReportMetric(mapSum/float64(b.N), "MAP")
}

// BenchmarkFigure9 regenerates Figure 9 cells: both point explainers with
// each detector on a planted-subspace dataset.
func BenchmarkFigure9(b *testing.B) {
	b.ReportAllocs()
	beam := func(det anex.Detector) anex.PointExplainer {
		e := anex.NewBeamFX(det)
		e.Width = 30
		e.TopK = 30
		return e
	}
	refout := func(det anex.Detector) anex.PointExplainer {
		e := anex.NewRefOut(det, 1)
		e.PoolSize = 60
		e.Width = 30
		e.TopK = 30
		return e
	}
	b.Run("Beam/LOF", func(b *testing.B) {
		figure9Cell(b, beam, func() anex.Detector { return anex.NewLOF(15) })
	})
	b.Run("Beam/iForest", func(b *testing.B) {
		b.ReportAllocs()
		figure9Cell(b, beam, func() anex.Detector {
			return &anex.IsolationForest{Trees: 50, Subsample: 128, Repetitions: 3}
		})
	})
	b.Run("RefOut/LOF", func(b *testing.B) {
		figure9Cell(b, refout, func() anex.Detector { return anex.NewLOF(15) })
	})
	b.Run("RefOut/FastABOD", func(b *testing.B) {
		figure9Cell(b, refout, func() anex.Detector { return anex.NewFastABOD(10) })
	})
}

// figure10Cell runs one (summarizer, detector) cell of Figure 10. Cold per
// iteration — fresh detector, score memo and private neighbourhood plane —
// for the same benchtime-independence reason as figure9Cell.
func figure10Cell(b *testing.B, mk func(det anex.Detector) anex.Summarizer, mkDet func() anex.Detector) {
	ds, gt := benchDataset(b, 300, 10)
	var mapSum float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det := mkDet()
		if ns, ok := det.(interface {
			SetNeighbors(*anex.NeighborhoodPlane)
		}); ok {
			ns.SetNeighbors(anex.NewNeighborhoodPlane(0))
		}
		sum := mk(anex.CachedDetector(det))
		res := anex.SummarizeOutliers(bctx, ds, gt, det.Name(), sum, 2)
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		mapSum += res.MAP
	}
	b.ReportMetric(mapSum/float64(b.N), "MAP")
}

// BenchmarkFigure10 regenerates Figure 10 cells: both summarizers with LOF
// and FastABOD.
func BenchmarkFigure10(b *testing.B) {
	b.ReportAllocs()
	lookout := func(det anex.Detector) anex.Summarizer {
		s := anex.NewLookOut(det)
		s.Budget = 30
		return s
	}
	hics := func(det anex.Detector) anex.Summarizer {
		s := anex.NewHiCSFX(det, 1)
		s.MCIterations = 40
		s.CandidateCutoff = 100
		s.TopK = 30
		return s
	}
	b.Run("LookOut/LOF", func(b *testing.B) {
		figure10Cell(b, lookout, func() anex.Detector { return anex.NewLOF(15) })
	})
	b.Run("LookOut/FastABOD", func(b *testing.B) {
		figure10Cell(b, lookout, func() anex.Detector { return anex.NewFastABOD(10) })
	})
	b.Run("HiCS/LOF", func(b *testing.B) {
		figure10Cell(b, hics, func() anex.Detector { return anex.NewLOF(15) })
	})
	b.Run("HiCS/FastABOD", func(b *testing.B) {
		figure10Cell(b, hics, func() anex.Detector { return anex.NewFastABOD(10) })
	})
}

// BenchmarkFigure11 measures the runtime of each pipeline family end to end
// — the quantity Figure 11 plots — on a fixed dataset with uncached
// detectors, explaining a bounded set of points. Each iteration gets a
// fresh LOF on a fresh private neighbourhood plane so "uncached" stays
// true across iterations.
func BenchmarkFigure11(b *testing.B) {
	b.ReportAllocs()
	ds, gt := benchDataset(b, 300, 10)
	points := gt.Outliers()
	if len(points) > 3 {
		points = points[:3]
	}
	sub := make(map[int][]subspace.Subspace, len(points))
	for _, p := range points {
		sub[p] = gt.RelevantFor(p)
	}
	small := anex.NewGroundTruth(sub)
	coldLOF := func() *anex.LOF {
		l := anex.NewLOF(15)
		l.SetNeighbors(anex.NewNeighborhoodPlane(0))
		return l
	}

	b.Run("Beam/LOF", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := anex.NewBeamFX(coldLOF())
			e.Width = 30
			if res := anex.ExplainOutliers(bctx, ds, small, "LOF", e, 2); res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	})
	b.Run("RefOut/LOF", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := anex.NewRefOut(coldLOF(), 1)
			e.PoolSize = 60
			if res := anex.ExplainOutliers(bctx, ds, small, "LOF", e, 2); res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	})
	b.Run("LookOut/LOF", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := anex.NewLookOut(coldLOF())
			s.Budget = 30
			if res := anex.SummarizeOutliers(bctx, ds, small, "LOF", s, 2); res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	})
	b.Run("HiCS/LOF", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := anex.NewHiCSFX(coldLOF(), 1)
			s.MCIterations = 40
			if res := anex.SummarizeOutliers(bctx, ds, small, "LOF", s, 2); res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	})
}

// BenchmarkTable2 measures the trade-off aggregation over precomputed
// pipeline results (the pipelines themselves are benched above).
func BenchmarkTable2(b *testing.B) {
	b.ReportAllocs()
	td, err := synth.BuildSynthetic(synth.SubspaceConfig{
		Name: "t2", TotalDims: 8, SubspaceDims: []int{2}, N: 200,
		OutliersPerSubspace: 4, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	rw, err := synth.BuildRealWorld(bctx,
		synth.FullSpaceConfig{Name: "t2-real", N: 100, D: 6, NumOutliers: 8, Seed: 2},
		[]int{2}, detector.NewLOF(detector.DefaultLOFK))
	if err != nil {
		b.Fatal(err)
	}
	s := &experiments.Session{
		Cfg: experiments.Config{Scale: synth.ScaleSmall, Seed: 1},
		TB: &experiments.Testbed{
			Synthetic: []synth.TestbedDataset{td},
			RealWorld: []synth.TestbedDataset{rw},
		},
	}
	s.PointResults(bctx) // populate caches outside the timed loop
	s.SummaryResults(bctx)
	s.TimingResults(bctx)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := s.Table2(bctx); len(tbl.Rows) == 0 {
			b.Fatal("table 2 empty")
		}
	}
}

// --- Ablation benches (design decisions from DESIGN.md) ---

// BenchmarkAblationRawVsZScore compares Beam's effectiveness with the
// paper's Z-score standardisation against raw detector scores. The MAP
// metric is the point: raw scores carry dimensionality bias.
func BenchmarkAblationRawVsZScore(b *testing.B) {
	b.ReportAllocs()
	ds, gt := benchDataset(b, 300, 10)
	run := func(b *testing.B, score explain.ScoreFunc) {
		det := anex.CachedDetector(anex.NewLOF(15))
		e := &explain.Beam{Detector: det, Width: 30, TopK: 30, FixedDim: true, Score: score}
		var mapSum float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := pipeline.RunPointExplanation(bctx, ds, gt, pipeline.PointPipeline{Detector: "LOF", Explainer: e}, 3)
			if res.Err != nil {
				b.Fatal(res.Err)
			}
			mapSum += res.MAP
		}
		b.ReportMetric(mapSum/float64(b.N), "MAP")
	}
	b.Run("zscore", func(b *testing.B) { run(b, explain.ZScored()) })
	b.Run("raw", func(b *testing.B) { run(b, explain.Raw()) })
}

// BenchmarkKNNBruteVsKDTree quantifies the KD-tree-vs-brute-force crossover
// on the low-dimensional views explainers query.
func BenchmarkKNNBruteVsKDTree(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	for _, dim := range []int{2, 4, 8, 16} {
		points := make([][]float64, 1000)
		for i := range points {
			p := make([]float64, dim)
			for j := range p {
				p[j] = rng.Float64()
			}
			points[i] = p
		}
		b.Run("brute/"+itoa(dim)+"d", func(b *testing.B) {
			b.ReportAllocs()
			ix := neighbors.NewBruteForce(points)
			for i := 0; i < b.N; i++ {
				if _, _, _, err := neighbors.AllKNNFlat(bctx, ix, 15, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("kdtree/"+itoa(dim)+"d", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := neighbors.AllKNNFlat(bctx, neighbors.NewKDTree(points), 15, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure9KNNPrune is the landmark-pruned candidate tier's
// acceptance workload: the complete k=15 neighbourhood structure of the
// paper's 1000-point 20d Figure-9 dataset — the widest, most expensive
// views the kNN detectors score — with the tier on versus off. Both arms
// are WARM-INDEX (built once outside the timer): the neighbourhood plane
// builds each index once per (dataset, subspace) and answers every
// detector and request from it, so steady-state query cost is what the
// tier actually changes; a cold arm would mostly measure the one-off
// landmark selection the plane amortises away. scripts/check.sh gates on
// the pruned/unpruned ratio of this benchmark (≤ 0.75), which
// self-normalises against host-load swings. The worker budget follows the
// live GOMAXPROCS so a `go test -cpu 1,2,4` sweep measures real scaling;
// the default run is the same single-worker loop the gate times.
func BenchmarkFigure9KNNPrune(b *testing.B) {
	ds, _ := benchDataset(b, 1000, 20)
	points := ds.FullView().Points()
	workers := runtime.GOMAXPROCS(0)
	run := func(b *testing.B, ix neighbors.Index) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := neighbors.AllKNNFlat(bctx, ix, 15, workers); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("pruned", func(b *testing.B) { run(b, neighbors.NewLandmarkIndex(points)) })
	b.Run("unpruned", func(b *testing.B) { run(b, neighbors.NewBruteForce(points)) })
}

// BenchmarkAblationHiCSTest compares the Welch and Kolmogorov–Smirnov
// contrast tests inside HiCS.
func BenchmarkAblationHiCSTest(b *testing.B) {
	b.ReportAllocs()
	ds, gt := benchDataset(b, 400, 10)
	run := func(b *testing.B, test summarize.ContrastTest) {
		det := anex.CachedDetector(anex.NewLOF(15))
		h := &summarize.HiCS{
			Detector: det, MCIterations: 40, CandidateCutoff: 100,
			Test: test, FixedDim: true, TopK: 30, Seed: 1,
		}
		var mapSum float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := pipeline.RunSummarization(bctx, ds, gt, pipeline.SummaryPipeline{Detector: "LOF", Summarizer: h}, 2)
			if res.Err != nil {
				b.Fatal(res.Err)
			}
			mapSum += res.MAP
		}
		b.ReportMetric(mapSum/float64(b.N), "MAP")
	}
	b.Run("welch", func(b *testing.B) { run(b, summarize.WelchTest) })
	b.Run("ks", func(b *testing.B) { run(b, summarize.KSTest) })
}

// BenchmarkAblationIForestAveraging measures the cost of the paper's
// 10-repetition iForest averaging against a single forest.
func BenchmarkAblationIForestAveraging(b *testing.B) {
	b.ReportAllocs()
	ds, _ := benchDataset(b, 500, 10)
	view := ds.View(anex.NewSubspace(0, 1, 2))
	b.Run("reps=1", func(b *testing.B) {
		b.ReportAllocs()
		f := &anex.IsolationForest{Trees: 100, Subsample: 256, Repetitions: 1, Seed: 1}
		for i := 0; i < b.N; i++ {
			f.Scores(bctx, view)
		}
	})
	b.Run("reps=10", func(b *testing.B) {
		b.ReportAllocs()
		f := &anex.IsolationForest{Trees: 100, Subsample: 256, Repetitions: 10, Seed: 1}
		for i := 0; i < b.N; i++ {
			f.Scores(bctx, view)
		}
	})
}

// BenchmarkContrastVsLOF reproduces the Section 4.3 insight that, at
// n ≈ 1000, HiCS's Monte-Carlo statistical test costs more per subspace
// than LOF's distance computation.
func BenchmarkContrastVsLOF(b *testing.B) {
	b.ReportAllocs()
	ds, _ := benchDataset(b, 1000, 10)
	// Same unit of work for both: assess every 2d subspace of the dataset
	// once — HiCS by Monte-Carlo contrast, LOF by outlyingness scoring.
	b.Run("hics-contrast", func(b *testing.B) {
		b.ReportAllocs()
		h := &summarize.HiCS{Detector: anex.NewLOF(15), MCIterations: 100, Seed: 1, FixedDim: true}
		for i := 0; i < b.N; i++ {
			if _, err := h.SearchContrastSubspaces(bctx, ds, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lof-score", func(b *testing.B) {
		b.ReportAllocs()
		lof := anex.NewLOF(15)
		want := subspace.Count(ds.D(), 2)
		for i := 0; i < b.N; i++ {
			e := subspace.NewEnumerator(ds.D(), 2)
			n := int64(0)
			for s := e.Next(); s != nil; s = e.Next() {
				lof.Scores(bctx, ds.View(s))
				n++
			}
			if n != want {
				b.Fatal("enumeration mismatch")
			}
		}
	})
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkSurrogateVsBeamPerPoint contrasts the cost of one predictive
// explanation (surrogate signature) with one descriptive explanation (Beam
// subspace search) — the trade-off the paper's conclusions propose.
func BenchmarkSurrogateVsBeamPerPoint(b *testing.B) {
	b.ReportAllocs()
	ds, gt := benchDataset(b, 300, 10)
	p := gt.Outliers()[0]
	row := make([]float64, ds.D())
	b.Run("surrogate-signature", func(b *testing.B) {
		b.ReportAllocs()
		forest, _, err := anex.ExplainDetectorWithSurrogate(bctx, ds, anex.NewLOF(15), anex.SurrogateForestOptions{
			Trees: 20, Seed: 1, Tree: anex.SurrogateTreeOptions{MaxDepth: 5},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			forest.Signature(ds.Row(p, row), 3)
		}
	})
	b.Run("beam-search", func(b *testing.B) {
		b.ReportAllocs()
		beam := anex.NewBeamFX(anex.NewLOF(15))
		beam.Width = 30
		for i := 0; i < b.N; i++ {
			if _, err := beam.ExplainPoint(bctx, ds, p, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("surrogate-fit", func(b *testing.B) {
		b.ReportAllocs()
		scores, err := anex.NewLOF(15).Scores(bctx, ds.FullView())
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := anex.FitSurrogateForest(ds, scores, anex.SurrogateForestOptions{
				Trees: 20, Seed: 1, Tree: anex.SurrogateTreeOptions{MaxDepth: 5},
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
