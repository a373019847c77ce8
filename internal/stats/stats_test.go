package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
	if got := Mean(nil); !math.IsNaN(got) {
		t.Errorf("Mean(nil) = %v, want NaN", got)
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	m, v := MeanVariance(xs)
	if m != 5 {
		t.Errorf("mean = %v", m)
	}
	// Sample variance: Σ(x−5)² = 32; 32/7 ≈ 4.5714.
	if !almostEqual(v, 32.0/7, 1e-12) {
		t.Errorf("variance = %v", v)
	}
	_, pv := PopulationMeanVariance(xs)
	if !almostEqual(pv, 4, 1e-12) {
		t.Errorf("population variance = %v", pv)
	}
}

func TestVarianceEdgeCases(t *testing.T) {
	if v := Variance([]float64{1}); !math.IsNaN(v) {
		t.Errorf("single-element variance = %v", v)
	}
	if v := Variance([]float64{3, 3, 3}); v != 0 {
		t.Errorf("constant variance = %v", v)
	}
}

func TestZScore(t *testing.T) {
	xs := []float64{0, 0, 0, 0, 10}
	// mean = 2, population var = 16, sd = 4 → z(10) = 2.
	if z := ZScore(10, xs); !almostEqual(z, 2, 1e-12) {
		t.Errorf("ZScore = %v", z)
	}
	if z := ZScore(5, []float64{1, 1, 1}); z != 0 {
		t.Errorf("constant population ZScore = %v, want 0", z)
	}
}

func TestZScoresStandardises(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 10
	}
	zs := ZScores(xs)
	m, v := PopulationMeanVariance(zs)
	if !almostEqual(m, 0, 1e-9) || !almostEqual(v, 1, 1e-9) {
		t.Errorf("standardised mean %v var %v", m, v)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Errorf("MinMax = %v, %v", lo, hi)
	}
	lo, hi = MinMax(nil)
	if !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Errorf("MinMax(nil) = %v, %v", lo, hi)
	}
}

func TestRank(t *testing.T) {
	got := Rank([]float64{30, 10, 20})
	want := []int{2, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Rank = %v, want %v", got, want)
		}
	}
}

func TestStudentTCDF(t *testing.T) {
	// Reference values from standard t tables.
	cases := []struct {
		t, df, want float64
	}{
		{0, 5, 0.5},
		{1.0, 1, 0.75},
		{2.015, 5, 0.95},
		{-2.015, 5, 0.05},
		{1.96, 1e6, 0.975}, // approaches the normal
	}
	for _, c := range cases {
		if got := StudentTCDF(c.t, c.df); !almostEqual(got, c.want, 2e-3) {
			t.Errorf("StudentTCDF(%v, %v) = %v, want %v", c.t, c.df, got, c.want)
		}
	}
	if got := StudentTCDF(math.Inf(1), 3); got != 1 {
		t.Errorf("CDF(+Inf) = %v", got)
	}
	if got := StudentTCDF(math.Inf(-1), 3); got != 0 {
		t.Errorf("CDF(-Inf) = %v", got)
	}
	if got := StudentTCDF(1, -1); !math.IsNaN(got) {
		t.Errorf("CDF with df<0 = %v, want NaN", got)
	}
}

func TestWelchTTestEqualSamples(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	res := WelchTTest(xs, xs)
	if !almostEqual(res.Statistic, 0, 1e-12) {
		t.Errorf("t = %v", res.Statistic)
	}
	if res.P < 0.99 {
		t.Errorf("p = %v, want ≈ 1", res.P)
	}
}

func TestWelchTTestKnownValue(t *testing.T) {
	// Classic Welch example (unequal variances):
	// A = {27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6, 23.1, 19.6, 19.0, 21.7, 21.4}
	// B = {27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2, 21.9, 22.1, 22.9, 30.5}
	a := []float64{27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6, 23.1, 19.6, 19.0, 21.7, 21.4}
	b := []float64{27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2, 21.9, 22.1, 22.9, 30.5}
	res := WelchTTest(a, b)
	// Reference values computed independently from the Welch formulas:
	// t ≈ −2.70778, df ≈ 26.9527, two-sided p ≈ 0.0116 (t_{0.995,27} = 2.771).
	if !almostEqual(res.Statistic, -2.70778, 1e-4) {
		t.Errorf("t = %v, want ≈ -2.70778", res.Statistic)
	}
	if !almostEqual(res.P, 0.0116, 5e-4) {
		t.Errorf("p = %v, want ≈ 0.0116", res.P)
	}
	if !almostEqual(res.DF, 26.9527, 1e-3) {
		t.Errorf("df = %v, want ≈ 26.9527", res.DF)
	}
}

func TestWelchTTestDegenerate(t *testing.T) {
	res := WelchTTest([]float64{1}, []float64{1, 2, 3})
	if res.P != 1 {
		t.Errorf("tiny sample p = %v, want 1", res.P)
	}
	// Identical constants: no discrepancy.
	res = WelchTTest([]float64{2, 2, 2}, []float64{2, 2})
	if res.P != 1 {
		t.Errorf("identical constants p = %v, want 1", res.P)
	}
	// Different constants: certain discrepancy with sign.
	res = WelchTTest([]float64{3, 3, 3}, []float64{1, 1, 1})
	if !math.IsInf(res.Statistic, 1) || res.P != 0 {
		t.Errorf("different constants = %+v", res)
	}
	res = WelchTTest([]float64{1, 1, 1}, []float64{3, 3, 3})
	if !math.IsInf(res.Statistic, -1) {
		t.Errorf("sign: %+v", res)
	}
}

// TestWelchFromMomentsMatchesWelchTTest requires WelchFromMoments, fed the
// MeanVariance moments of two samples, to reproduce WelchTTest on the
// samples themselves bit for bit — on random samples and on every
// degenerate branch (a sample below two elements, equal constants,
// different constants, zero variance on one side only).
func TestWelchFromMomentsMatchesWelchTTest(t *testing.T) {
	same := func(xs, ys []float64) bool {
		mx, vx := MeanVariance(xs)
		my, vy := MeanVariance(ys)
		got := WelchFromMoments(mx, vx, len(xs), my, vy, len(ys))
		want := WelchTTest(xs, ys)
		return math.Float64bits(got.Statistic) == math.Float64bits(want.Statistic) &&
			math.Float64bits(got.DF) == math.Float64bits(want.DF) &&
			math.Float64bits(got.P) == math.Float64bits(want.P)
	}
	degenerate := []struct {
		name   string
		xs, ys []float64
	}{
		{"empty", nil, []float64{1, 2, 3}},
		{"single", []float64{4}, []float64{1, 2, 3}},
		{"single-right", []float64{1, 2, 3}, []float64{4}},
		{"equal-constants", []float64{2, 2, 2}, []float64{2, 2}},
		{"different-constants", []float64{3, 3, 3}, []float64{1, 1, 1, 1}},
		{"constant-left", []float64{5, 5, 5}, []float64{1, 4, 2, 8}},
		{"constant-right", []float64{1, 4, 2, 8}, []float64{5, 5}},
	}
	for _, c := range degenerate {
		if !same(c.xs, c.ys) {
			t.Errorf("%s: WelchFromMoments differs from WelchTTest", c.name)
		}
	}
	rng := rand.New(rand.NewSource(11))
	f := func(nxRaw uint8, nyRaw uint16, shift float64) bool {
		xs := make([]float64, int(nxRaw%40))
		ys := make([]float64, int(nyRaw%300))
		for i := range xs {
			xs[i] = rng.NormFloat64() + math.Mod(shift, 3)
		}
		for i := range ys {
			ys[i] = 2 * rng.Float64()
		}
		return same(xs, ys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestWelchTTestSeparatesShiftedSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := make([]float64, 60)
	b := make([]float64, 40)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range b {
		b[i] = rng.NormFloat64() + 2
	}
	res := WelchTTest(a, b)
	if res.Statistic >= 0 {
		t.Errorf("t = %v, want negative (a below b)", res.Statistic)
	}
	if res.P > 1e-6 {
		t.Errorf("p = %v, want ≈ 0", res.P)
	}
}

func TestKolmogorovSmirnovSameDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := make([]float64, 200)
	b := make([]float64, 150)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	res := KolmogorovSmirnov(a, b)
	if res.P < 0.01 {
		t.Errorf("same distribution rejected: p = %v, D = %v", res.P, res.Statistic)
	}
}

func TestKolmogorovSmirnovDifferentDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := make([]float64, 200)
	b := make([]float64, 200)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range b {
		b[i] = rng.NormFloat64() + 1.5
	}
	res := KolmogorovSmirnov(a, b)
	if res.P > 1e-6 {
		t.Errorf("shifted distribution not detected: p = %v", res.P)
	}
	if res.Statistic < 0.4 {
		t.Errorf("D = %v, want large", res.Statistic)
	}
}

func TestKolmogorovSmirnovKnownStatistic(t *testing.T) {
	// D between {1,2,3} and {1.5,2.5,3.5} is 1/3.
	res := KolmogorovSmirnov([]float64{1, 2, 3}, []float64{1.5, 2.5, 3.5})
	if !almostEqual(res.Statistic, 1.0/3, 1e-12) {
		t.Errorf("D = %v, want 1/3", res.Statistic)
	}
	if res := KolmogorovSmirnov(nil, []float64{1}); res.P != 1 {
		t.Errorf("empty sample p = %v", res.P)
	}
}

func TestPropertyZScoreLinearInvariance(t *testing.T) {
	// Z-scores are invariant under affine transforms with positive scale.
	f := func(raw []float64, shift float64, scaleSeed uint8) bool {
		if len(raw) < 3 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				continue
			}
			xs = append(xs, v)
		}
		if len(xs) < 3 || Variance(xs) < 1e-9 {
			return true
		}
		if math.IsNaN(shift) || math.IsInf(shift, 0) || math.Abs(shift) > 1e6 {
			shift = 1
		}
		scale := 0.5 + float64(scaleSeed%100)/10
		ys := make([]float64, len(xs))
		for i, v := range xs {
			ys[i] = v*scale + shift
		}
		z1 := ZScores(xs)
		z2 := ZScores(ys)
		for i := range z1 {
			if !almostEqual(z1[i], z2[i], 1e-6*(1+math.Abs(z1[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyWelchSymmetry(t *testing.T) {
	// Swapping the samples flips the sign of t and preserves p.
	f := func(ra, rb []float64) bool {
		a := sanitize(ra)
		b := sanitize(rb)
		if len(a) < 2 || len(b) < 2 {
			return true
		}
		r1 := WelchTTest(a, b)
		r2 := WelchTTest(b, a)
		if math.IsInf(r1.Statistic, 0) {
			return math.IsInf(r2.Statistic, 0)
		}
		return almostEqual(r1.Statistic, -r2.Statistic, 1e-9) && almostEqual(r1.P, r2.P, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyKSStatisticBounds(t *testing.T) {
	f := func(ra, rb []float64) bool {
		a := sanitize(ra)
		b := sanitize(rb)
		if len(a) == 0 || len(b) == 0 {
			return true
		}
		res := KolmogorovSmirnov(a, b)
		return res.Statistic >= 0 && res.Statistic <= 1 && res.P >= 0 && res.P <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func sanitize(raw []float64) []float64 {
	out := make([]float64, 0, len(raw))
	for _, v := range raw {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e9 {
			continue
		}
		out = append(out, v)
	}
	return out
}

func TestDegenerateInputs(t *testing.T) {
	if _, v := MeanVariance([]float64{5}); !math.IsNaN(v) {
		t.Error("single-sample variance should be NaN")
	}
	if m, v := PopulationMeanVariance(nil); !math.IsNaN(m) || !math.IsNaN(v) {
		t.Error("empty population stats should be NaN")
	}
	if zs := ZScores(nil); len(zs) != 0 {
		t.Error("empty ZScores")
	}
}

func TestKSPValueEdges(t *testing.T) {
	if p := ksPValue(0); p != 1 {
		t.Errorf("λ=0 p = %v", p)
	}
	if p := ksPValue(-1); p != 1 {
		t.Errorf("λ<0 p = %v", p)
	}
	// Huge λ drives the tail to ~0 and must stay clamped in [0,1].
	if p := ksPValue(50); p < 0 || p > 1e-10 {
		t.Errorf("λ=50 p = %v", p)
	}
	// Small λ: series alternates; result still within [0,1].
	if p := ksPValue(0.2); p < 0 || p > 1 {
		t.Errorf("λ=0.2 p = %v", p)
	}
}

func TestRegIncompleteBetaEdges(t *testing.T) {
	if v := regIncompleteBeta(2, 3, 0); v != 0 {
		t.Errorf("I_0 = %v", v)
	}
	if v := regIncompleteBeta(2, 3, 1); v != 1 {
		t.Errorf("I_1 = %v", v)
	}
	// Symmetry: I_x(a,b) = 1 − I_{1−x}(b,a).
	for _, x := range []float64{0.1, 0.35, 0.72, 0.9} {
		lhs := regIncompleteBeta(2.5, 4.5, x)
		rhs := 1 - regIncompleteBeta(4.5, 2.5, 1-x)
		if !almostEqual(lhs, rhs, 1e-10) {
			t.Errorf("symmetry at x=%v: %v vs %v", x, lhs, rhs)
		}
	}
	// I_x(1,1) is the identity (uniform CDF).
	if v := regIncompleteBeta(1, 1, 0.42); !almostEqual(v, 0.42, 1e-10) {
		t.Errorf("I_x(1,1) = %v", v)
	}
}

func TestWelchNaNInputs(t *testing.T) {
	// NaN-contaminated samples yield a no-evidence result rather than
	// propagating NaN into the decision.
	res := WelchTTest([]float64{math.NaN(), 1, 2}, []float64{1, 2, 3})
	if !math.IsNaN(res.Statistic) && res.P >= 0 && res.P <= 1 {
		return // p stays usable
	}
	if res.P != 1 && !math.IsNaN(res.Statistic) {
		t.Errorf("unexpected result on NaN input: %+v", res)
	}
}
