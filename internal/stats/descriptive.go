// Package stats implements the statistical substrate of the testbed:
// descriptive statistics, the two-sample Welch t-test and
// Kolmogorov–Smirnov test used by RefOut and HiCS, correlation, and the
// special functions (regularised incomplete beta, error function) their
// p-values require. Everything is implemented from scratch on float64
// slices; no external numerical libraries are used.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// MeanVariance returns the mean and the unbiased sample variance of xs in a
// single pass (Welford's algorithm). Variance is NaN when len(xs) < 2.
func MeanVariance(xs []float64) (mean, variance float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	var m, m2 float64
	for i, x := range xs {
		delta := x - m
		m += delta / float64(i+1)
		m2 += delta * (x - m)
	}
	if len(xs) < 2 {
		return m, math.NaN()
	}
	return m, m2 / float64(len(xs)-1)
}

// Variance returns the unbiased sample variance of xs.
func Variance(xs []float64) float64 {
	_, v := MeanVariance(xs)
	return v
}

// PopulationMeanVariance returns the mean and the population (biased)
// variance of xs. The Z-score standardisation of outlier scores uses the
// population variance, matching the paper's score(p_s)' definition.
func PopulationMeanVariance(xs []float64) (mean, variance float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	var m, m2 float64
	for i, x := range xs {
		delta := x - m
		m += delta / float64(i+1)
		m2 += delta * (x - m)
	}
	return m, m2 / float64(len(xs))
}

// ZScore standardises value x against the population described by xs:
// (x − mean) / sqrt(populationVariance). If the population variance is zero
// (all scores identical) it returns 0, so constant score distributions
// neither help nor hurt a candidate subspace.
func ZScore(x float64, xs []float64) float64 {
	m, v := PopulationMeanVariance(xs)
	return ZScoreFromMoments(x, m, v)
}

// ZScoreFromMoments is ZScore for callers that already hold the population
// moments (memoised score distributions): same formula, same zero-variance
// convention, bit-identical results.
func ZScoreFromMoments(x, mean, variance float64) float64 {
	if variance <= 0 || math.IsNaN(variance) {
		return 0
	}
	return (x - mean) / math.Sqrt(variance)
}

// ZScores standardises every element of xs in place-compatible fashion,
// returning a new slice. Constant inputs map to all zeros.
func ZScores(xs []float64) []float64 {
	out := make([]float64, len(xs))
	m, v := PopulationMeanVariance(xs)
	if v <= 0 || math.IsNaN(v) {
		return out
	}
	sd := math.Sqrt(v)
	for i, x := range xs {
		out[i] = (x - m) / sd
	}
	return out
}

// MinMax returns the minimum and maximum of xs. Both are NaN for an empty
// slice.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Rank returns, for each element of xs, its 0-based rank in ascending order.
// Ties are broken by original index, which keeps the ranking deterministic.
func Rank(xs []float64) []int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]int, len(xs))
	for r, i := range idx {
		ranks[i] = r
	}
	return ranks
}
