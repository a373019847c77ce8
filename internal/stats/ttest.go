package stats

import "math"

// TTestResult holds the outcome of a two-sample test.
type TTestResult struct {
	// Statistic is the (signed) test statistic: positive when the first
	// sample's mean exceeds the second's.
	Statistic float64
	// DF is the Welch–Satterthwaite degrees of freedom.
	DF float64
	// P is the two-sided p-value.
	P float64
}

// WelchTTest performs the two-sample Welch t-test of the null hypothesis
// that xs and ys have equal means, without assuming equal variances or
// sample sizes (Welch 1938). RefOut uses the signed statistic as the
// feature-discrepancy measure, and HiCS uses 1−p as the subspace contrast.
//
// Both samples must contain at least two elements; otherwise a zero-valued
// result with P=1 is returned, which makes degenerate partitions score as
// "no discrepancy".
func WelchTTest(xs, ys []float64) TTestResult {
	mx, vx := MeanVariance(xs)
	my, vy := MeanVariance(ys)
	return WelchFromMoments(mx, vx, len(xs), my, vy, len(ys))
}

// WelchFromMoments is WelchTTest on samples already reduced to their
// MeanVariance moments and sizes, so a caller testing many samples against
// one fixed sample computes that sample's moments once. Given the moments
// WelchTTest would compute, the result is bit-identical to it, including
// the P=1 result when either size is below two.
func WelchFromMoments(mx, vx float64, nx int, my, vy float64, ny int) TTestResult {
	if nx < 2 || ny < 2 {
		return TTestResult{P: 1}
	}
	fx, fy := float64(nx), float64(ny)
	sx := vx / fx
	sy := vy / fy
	se := math.Sqrt(sx + sy)
	if se == 0 || math.IsNaN(se) {
		// Identical constant samples: no evidence of discrepancy.
		if mx == my {
			return TTestResult{P: 1}
		}
		// Different constants: infinite evidence.
		t := math.Inf(1)
		if mx < my {
			t = math.Inf(-1)
		}
		return TTestResult{Statistic: t, DF: fx + fy - 2, P: 0}
	}
	t := (mx - my) / se
	// Welch–Satterthwaite degrees of freedom.
	num := (sx + sy) * (sx + sy)
	den := sx*sx/(fx-1) + sy*sy/(fy-1)
	df := num / den
	if den == 0 || math.IsNaN(df) {
		df = fx + fy - 2
	}
	p := 2 * StudentTCDF(-math.Abs(t), df)
	if p > 1 {
		p = 1
	}
	return TTestResult{Statistic: t, DF: df, P: p}
}
