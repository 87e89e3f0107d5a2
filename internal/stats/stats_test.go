package stats

import (
	"math"
	"testing"
	"testing/quick"

	"ssmis/internal/xrand"
)

func close(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarizeKnownSample(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	s := Summarize(xs)
	if s.N != 8 {
		t.Fatalf("N = %d", s.N)
	}
	if !close(s.Mean, 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", s.Mean)
	}
	// Sample sd with n-1: variance = 32/7.
	if !close(s.StdDev, math.Sqrt(32.0/7.0), 1e-12) {
		t.Fatalf("StdDev = %v", s.StdDev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("Min/Max = %v/%v", s.Min, s.Max)
	}
	if !close(s.Median, 4.5, 1e-12) {
		t.Fatalf("Median = %v, want 4.5", s.Median)
	}
}

func TestSummarizeSingleton(t *testing.T) {
	s := Summarize([]float64{3})
	if s.Mean != 3 || s.StdDev != 0 || s.Median != 3 || s.Min != 3 || s.Max != 3 {
		t.Fatalf("singleton summary wrong: %+v", s)
	}
	if s.MeanCI95() != 0 {
		t.Fatal("singleton CI should be 0")
	}
}

func TestSummarizeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Summarize(nil)
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {-1, 1}, {2, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !close(got, c.want, 1e-12) {
			t.Errorf("Quantile(%.2f) = %v, want %v", c.q, got, c.want)
		}
	}
	// Interpolation between order statistics.
	if got := Quantile([]float64{0, 10}, 0.5); !close(got, 5, 1e-12) {
		t.Fatalf("interpolated median = %v", got)
	}
}

func TestQuantileUnsortedInput(t *testing.T) {
	if got := Quantile([]float64{5, 1, 3, 2, 4}, 0.5); !close(got, 3, 1e-12) {
		t.Fatalf("median of unsorted = %v", got)
	}
}

func TestMeanHelpers(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
}

func TestLinearFitExact(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{3, 5, 7, 9} // y = 1 + 2x
	a, b, r2 := LinearFit(x, y)
	if !close(a, 1, 1e-9) || !close(b, 2, 1e-9) || !close(r2, 1, 1e-9) {
		t.Fatalf("fit a=%v b=%v r2=%v, want 1, 2, 1", a, b, r2)
	}
}

func TestLinearFitNoisy(t *testing.T) {
	rng := xrand.New(1)
	var x, y []float64
	for i := 0; i < 500; i++ {
		xi := float64(i) / 10
		x = append(x, xi)
		y = append(y, 2+3*xi+(rng.Float64()-0.5))
	}
	a, b, r2 := LinearFit(x, y)
	if !close(a, 2, 0.1) || !close(b, 3, 0.01) {
		t.Fatalf("noisy fit a=%v b=%v", a, b)
	}
	if r2 < 0.99 {
		t.Fatalf("R² = %v too low", r2)
	}
}

func TestLinearFitConstantY(t *testing.T) {
	a, b, r2 := LinearFit([]float64{1, 2, 3}, []float64{4, 4, 4})
	if !close(a, 4, 1e-12) || !close(b, 0, 1e-12) || r2 != 1 {
		t.Fatalf("constant-y fit a=%v b=%v r2=%v", a, b, r2)
	}
}

func TestLinearFitPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"short":      func() { LinearFit([]float64{1}, []float64{1}) },
		"constant-x": func() { LinearFit([]float64{2, 2}, []float64{1, 3}) },
		"mismatch":   func() { LinearFit([]float64{1, 2}, []float64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestPolylogFitRecoversExponent(t *testing.T) {
	// T = 3 · ln(n)^2 exactly.
	var ns, ts []float64
	for _, n := range []float64{100, 1000, 10000, 100000, 1e6} {
		ns = append(ns, n)
		ts = append(ts, 3*math.Pow(math.Log(n), 2))
	}
	c, k, r2 := PolylogFit(ns, ts)
	if !close(c, 3, 1e-6) || !close(k, 2, 1e-6) || !close(r2, 1, 1e-9) {
		t.Fatalf("PolylogFit c=%v k=%v r2=%v, want 3, 2, 1", c, k, r2)
	}
}

func TestPowerFitRecoversExponent(t *testing.T) {
	var ns, ts []float64
	for _, n := range []float64{10, 100, 1000} {
		ns = append(ns, n)
		ts = append(ts, 0.5*math.Pow(n, 1.5))
	}
	c, k, r2 := PowerFit(ns, ts)
	if !close(c, 0.5, 1e-9) || !close(k, 1.5, 1e-9) || !close(r2, 1, 1e-9) {
		t.Fatalf("PowerFit c=%v k=%v r2=%v", c, k, r2)
	}
}

func TestPolylogVsPowerDiscrimination(t *testing.T) {
	// Data that is genuinely polylog should fit polylog with R² near 1 and
	// power-law with small exponent; data that is a power law should show a
	// clearly positive power exponent. This mirrors how the experiments
	// decide "polylog-shaped".
	rng := xrand.New(2)
	var ns, polylog, power []float64
	for _, n := range []float64{256, 1024, 4096, 16384, 65536, 262144} {
		noise := 1 + 0.05*(rng.Float64()-0.5)
		ns = append(ns, n)
		polylog = append(polylog, 2*math.Pow(math.Log(n), 2)*noise)
		power = append(power, 0.1*math.Pow(n, 0.5)*noise)
	}
	_, kPoly, r2Poly := PolylogFit(ns, polylog)
	if r2Poly < 0.98 || kPoly < 1.5 || kPoly > 2.5 {
		t.Fatalf("polylog data: k=%v r2=%v", kPoly, r2Poly)
	}
	_, kPow, _ := PowerFit(ns, power)
	if kPow < 0.4 || kPow > 0.6 {
		t.Fatalf("power data: k=%v", kPow)
	}
	// The power exponent fitted to polylog data must be near zero.
	_, kCross, _ := PowerFit(ns, polylog)
	if kCross > 0.25 {
		t.Fatalf("power fit of polylog data has exponent %v", kCross)
	}
}

func TestGeometricTailSlope(t *testing.T) {
	// Sample from an exact geometric tail: P[X >= k] = 2^-k, i.e. X uniform
	// over {1,2,...} with mass 2^-k at k.
	rng := xrand.New(3)
	xs := make([]float64, 60000)
	for i := range xs {
		k := 1
		for rng.Bit() && k < 40 {
			k++
		}
		xs[i] = float64(k)
	}
	slope, points := GeometricTailSlope(xs, 1, 30)
	if points < 3 {
		t.Fatalf("only %d tail points", points)
	}
	if !close(slope, -1, 0.15) {
		t.Fatalf("tail slope %v, want ≈ -1", slope)
	}
}

func TestGeometricTailSlopeDegenerate(t *testing.T) {
	if s, p := GeometricTailSlope(nil, 1, 5); s != 0 || p != 0 {
		t.Fatal("empty sample should return zeros")
	}
	if _, p := GeometricTailSlope([]float64{0.1, 0.2}, 100, 5); p != 0 {
		t.Fatal("all-below-threshold sample should have 0 points")
	}
}

// Property: Summarize respects Min <= Median <= Max and Mean within [Min,Max].
func TestSummaryOrderingProperty(t *testing.T) {
	rng := xrand.New(4)
	f := func(seed uint64) bool {
		r := rng.Split(seed)
		n := 1 + r.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64()*200 - 100
		}
		s := Summarize(xs)
		return s.Min <= s.Median && s.Median <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max &&
			s.Median <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: LinearFit on data generated from a known line recovers it.
func TestLinearFitRoundTripProperty(t *testing.T) {
	rng := xrand.New(5)
	f := func(seed uint64) bool {
		r := rng.Split(seed)
		a0 := r.Float64()*10 - 5
		b0 := r.Float64()*10 - 5
		var x, y []float64
		for i := 0; i < 10; i++ {
			xi := float64(i)
			x = append(x, xi)
			y = append(y, a0+b0*xi)
		}
		a, b, r2 := LinearFit(x, y)
		return close(a, a0, 1e-6) && close(b, b0, 1e-6) && r2 > 1-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
