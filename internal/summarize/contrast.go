package summarize

import (
	"math"
	"math/rand"
	"sort"

	"anex/internal/dataset"
	"anex/internal/stats"
	"anex/internal/subspace"
)

// ContrastTest selects the two-sample statistical test HiCS uses to measure
// subspace contrast (footnote 2 of the paper).
type ContrastTest int

const (
	// WelchTest uses Welch's two-sample t-test (the paper's setting).
	WelchTest ContrastTest = iota
	// KSTest uses the two-sample Kolmogorov–Smirnov test.
	KSTest
)

func (t ContrastTest) String() string {
	if t == KSTest {
		return "KS"
	}
	return "Welch"
}

// contrastEstimator computes Monte-Carlo subspace contrast over one
// dataset. It owns the per-feature sort orders and marginal moments, which
// are computed once and shared across the thousands of subspace evaluations
// of a HiCS run.
type contrastEstimator struct {
	ds      *dataset.Dataset
	sortIdx [][]int   // sortIdx[f] = point indices ordered by feature f value
	mean    []float64 // mean[f], vari[f] = stats.MeanVariance of feature f
	vari    []float64
	alpha   float64
	mc      int
	test    ContrastTest
	rng     *rand.Rand

	mask []int // scratch: per-point slice-membership counter
}

func newContrastEstimator(ds *dataset.Dataset, alpha float64, mcIterations int, test ContrastTest, rng *rand.Rand) *contrastEstimator {
	e := &contrastEstimator{
		ds:    ds,
		alpha: alpha,
		mc:    mcIterations,
		test:  test,
		rng:   rng,
		mask:  make([]int, ds.N()),
	}
	e.sortIdx = make([][]int, ds.D())
	e.mean = make([]float64, ds.D())
	e.vari = make([]float64, ds.D())
	for f := 0; f < ds.D(); f++ {
		idx := make([]int, ds.N())
		for i := range idx {
			idx[i] = i
		}
		col := ds.Column(f)
		sort.Slice(idx, func(a, b int) bool { return col[idx[a]] < col[idx[b]] })
		e.sortIdx[f] = idx
		e.mean[f], e.vari[f] = stats.MeanVariance(col)
	}
	return e
}

// minConditionalSample is the smallest conditional sample an iteration must
// produce to contribute; smaller intersections carry no statistical signal.
const minConditionalSample = 5

// contrast estimates the contrast of subspace s: the average, over MC
// iterations, of (1 − p-value) of a two-sample test comparing the marginal
// distribution of a randomly chosen test feature against its distribution
// conditioned on random adjacent slices of the remaining features. High
// contrast means the features are strongly dependent — the HiCS signal for
// subspaces likely to separate outliers from inliers.
func (e *contrastEstimator) contrast(s subspace.Subspace) float64 {
	m := s.Dim()
	if m < 2 {
		return 0
	}
	n := e.ds.N()
	// Per-dimension slice size so the expected conditional sample is α·n:
	// each of the m−1 conditioning features keeps an α^(1/(m−1)) fraction.
	sliceFrac := math.Pow(e.alpha, 1/float64(m-1))
	sliceSize := int(math.Ceil(sliceFrac * float64(n)))
	if sliceSize < 1 {
		sliceSize = 1
	}
	if sliceSize > n {
		sliceSize = n
	}

	var sum float64
	valid := 0
	cond := make([]float64, 0, sliceSize)
	for iter := 0; iter < e.mc; iter++ {
		testDim := s[e.rng.Intn(m)]
		// Mark the points inside every conditioning slice.
		needed := 0
		for _, f := range s {
			if f == testDim {
				continue
			}
			needed++
			idx := e.sortIdx[f]
			start := e.rng.Intn(n - sliceSize + 1)
			for _, p := range idx[start : start+sliceSize] {
				e.mask[p]++
			}
		}
		// Collect the conditional sample: points inside all slices.
		cond = cond[:0]
		col := e.ds.Column(testDim)
		for p := 0; p < n; p++ {
			if e.mask[p] == needed {
				cond = append(cond, col[p])
			}
			e.mask[p] = 0
		}
		if len(cond) < minConditionalSample {
			continue
		}
		var p float64
		switch e.test {
		case KSTest:
			p = stats.KolmogorovSmirnov(cond, col).P
		default:
			// The marginal's moments are the column's, computed once in
			// newContrastEstimator: WelchTTest(cond, col) bit for bit.
			mc, vc := stats.MeanVariance(cond)
			p = stats.WelchFromMoments(mc, vc, len(cond), e.mean[testDim], e.vari[testDim], n).P
		}
		sum += 1 - p
		valid++
	}
	if valid == 0 {
		return 0
	}
	return sum / float64(valid)
}
