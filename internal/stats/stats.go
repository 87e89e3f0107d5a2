// Package stats provides the summary statistics and model-fitting helpers
// the experiment harness uses to turn raw stabilization-time samples into
// the quantities the paper's theorems speak about: means with confidence
// intervals, tail quantiles, and fitted exponents for polylogarithmic
// scaling laws of the form T ≈ c · ln^k(n).
package stats

import (
	"fmt"
	"math"
)

// Summary holds the standard descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64 // sample standard deviation (n-1 denominator)
	Min    float64
	Max    float64
	Median float64
	P90    float64
	P99    float64
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f sd=%.2f min=%.0f med=%.1f p90=%.1f p99=%.1f max=%.0f",
		s.N, s.Mean, s.StdDev, s.Min, s.Median, s.P90, s.P99, s.Max)
}

// MeanCI95 returns the normal-approximation 95% confidence half-width of the
// sample mean: 1.96·sd/√n (0 for samples of size < 2).
func (s Summary) MeanCI95() float64 {
	if s.N < 2 {
		return 0
	}
	return 1.96 * s.StdDev / math.Sqrt(float64(s.N))
}

// Mean returns the arithmetic mean (0 for an empty sample).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// LinearFit fits y ≈ a + b·x by ordinary least squares and returns the
// intercept a, slope b, and the coefficient of determination R². It panics
// if fewer than 2 points are given or all x are identical.
func LinearFit(x, y []float64) (a, b, r2 float64) {
	if len(x) != len(y) || len(x) < 2 {
		panic("stats: LinearFit needs >= 2 paired points")
	}
	n := float64(len(x))
	mx, my := Mean(x), Mean(y)
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		panic("stats: LinearFit with constant x")
	}
	b = sxy / sxx
	a = my - b*mx
	if syy == 0 {
		return a, b, 1 // y constant: the fit is exact
	}
	// R² = 1 - SSres/SStot.
	ssres := 0.0
	for i := range x {
		res := y[i] - (a + b*x[i])
		ssres += res * res
	}
	r2 = 1 - ssres/syy
	_ = n
	return a, b, r2
}

// PolylogFit fits T ≈ c · ln(n)^k by regressing ln(T) on ln(ln(n)), returning
// the constant c, the exponent k, and R². All n must exceed e (so ln ln n is
// defined and positive) and all T must be positive.
func PolylogFit(ns []float64, ts []float64) (c, k, r2 float64) {
	if len(ns) != len(ts) || len(ns) < 2 {
		panic("stats: PolylogFit needs >= 2 paired points")
	}
	x := make([]float64, len(ns))
	y := make([]float64, len(ns))
	for i := range ns {
		ln := math.Log(ns[i])
		if ln <= 1 {
			panic(fmt.Sprintf("stats: PolylogFit requires n > e, got n=%v", ns[i]))
		}
		if ts[i] <= 0 {
			panic(fmt.Sprintf("stats: PolylogFit requires T > 0, got T=%v", ts[i]))
		}
		x[i] = math.Log(ln)
		y[i] = math.Log(ts[i])
	}
	a, b, r2 := LinearFit(x, y)
	return math.Exp(a), b, r2
}

// PowerFit fits T ≈ c · n^k by regressing ln(T) on ln(n).
func PowerFit(ns []float64, ts []float64) (c, k, r2 float64) {
	if len(ns) != len(ts) || len(ns) < 2 {
		panic("stats: PowerFit needs >= 2 paired points")
	}
	x := make([]float64, len(ns))
	y := make([]float64, len(ns))
	for i := range ns {
		if ns[i] <= 0 || ts[i] <= 0 {
			panic("stats: PowerFit requires positive data")
		}
		x[i] = math.Log(ns[i])
		y[i] = math.Log(ts[i])
	}
	a, b, r2 := LinearFit(x, y)
	return math.Exp(a), b, r2
}

// GeometricTailSlope estimates the decay rate of P[X >= k·scale] in
// log2-space by regressing log2 of the empirical tail on k, using only tail
// points with at least minCount samples. The paper's Theorem 8 predicts
// slope ≈ -Θ(1) for the stabilization time on cliques with scale = log2(n).
// Returns the slope and the number of tail points used (0 if too few).
func GeometricTailSlope(xs []float64, scale float64, minCount int) (slope float64, points int) {
	if scale <= 0 || len(xs) == 0 {
		return 0, 0
	}
	n := len(xs)
	var ks, logs []float64
	for k := 1; ; k++ {
		thresh := float64(k) * scale
		cnt := 0
		for _, x := range xs {
			if x >= thresh {
				cnt++
			}
		}
		if cnt < minCount {
			break
		}
		ks = append(ks, float64(k))
		logs = append(logs, math.Log2(float64(cnt)/float64(n)))
	}
	if len(ks) < 2 {
		return 0, len(ks)
	}
	_, b, _ := LinearFit(ks, logs)
	return b, len(ks)
}
