package stats

import "math"

// regIncompleteBeta computes the regularised incomplete beta function
// I_x(a, b) using the continued-fraction expansion from Numerical Recipes.
// It is the building block for the Student-t CDF used by Welch's t-test.
func regIncompleteBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lnBeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(lnBeta + a*math.Log(x) + b*math.Log(1-x))
	// Use the symmetry relation for faster convergence.
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta function
// by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIterations = 300
		epsilon       = 3e-14
		tiny          = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIterations; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < epsilon {
			break
		}
	}
	return h
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// StudentTCDF returns P(T ≤ t) for a Student-t distribution with df degrees
// of freedom. df may be fractional (Welch–Satterthwaite).
func StudentTCDF(t, df float64) float64 {
	if math.IsNaN(t) || math.IsNaN(df) || df <= 0 {
		return math.NaN()
	}
	if math.IsInf(t, 1) {
		return 1
	}
	if math.IsInf(t, -1) {
		return 0
	}
	x := df / (df + t*t)
	p := 0.5 * regIncompleteBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}
