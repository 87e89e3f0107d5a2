package stats

import (
	"math"
	"testing"

	"ssmis/internal/xrand"
)

// The streaming quantiles must agree exactly with the slice-based path on
// integer-valued samples (the only kind the batch sinks feed them).
func TestStreamMatchesSummarize(t *testing.T) {
	rng := xrand.New(3)
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(400)
		xs := make([]float64, n)
		s := NewQuantileStream()
		for i := range xs {
			xs[i] = float64(rng.Intn(50))
			s.Add(xs[i])
		}
		want := Summarize(xs)
		got := s.Summary()
		if got.N != want.N || got.Min != want.Min || got.Max != want.Max ||
			got.Median != want.Median || got.P90 != want.P90 || got.P99 != want.P99 {
			t.Fatalf("trial %d: stream %+v vs summarize %+v", trial, got, want)
		}
		if math.Abs(got.Mean-want.Mean) > 1e-9*math.Max(1, math.Abs(want.Mean)) {
			t.Fatalf("trial %d: mean %v vs %v", trial, got.Mean, want.Mean)
		}
		if math.Abs(got.StdDev-want.StdDev) > 1e-9*math.Max(1, want.StdDev) {
			t.Fatalf("trial %d: sd %v vs %v", trial, got.StdDev, want.StdDev)
		}
		if math.Abs(got.Mean-Mean(xs)) > 1e-9*math.Max(1, math.Abs(want.Mean)) {
			t.Fatalf("trial %d: stream mean drifted", trial)
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 1} {
			if sq, wq := s.Quantile(q), Quantile(xs, q); sq != wq {
				t.Fatalf("trial %d: q=%v stream %v vs slice %v", trial, q, sq, wq)
			}
		}
	}
}

// Feeding the same sequence twice must produce bit-identical aggregates —
// the property the batch scheduler's in-order delivery relies on.
func TestStreamDeterministic(t *testing.T) {
	mk := func() *Stream {
		s := NewQuantileStream()
		rng := xrand.New(11)
		for i := 0; i < 1000; i++ {
			s.Add(float64(rng.Intn(1000)))
		}
		return s
	}
	a, b := mk(), mk()
	if a.Mean() != b.Mean() || a.StdDev() != b.StdDev() || a.MeanCI95() != b.MeanCI95() {
		t.Fatal("identical sequences produced different aggregates")
	}
}

func TestStreamValues(t *testing.T) {
	s := NewQuantileStream()
	for _, x := range []float64{3, 1, 3, 2} {
		s.Add(x)
	}
	vals := s.Values()
	want := []float64{1, 2, 3, 3}
	if len(vals) != len(want) {
		t.Fatalf("Values len %d", len(vals))
	}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("Values = %v", vals)
		}
	}
}

func TestStreamEmptyAndPlain(t *testing.T) {
	s := NewStream()
	if s.N() != 0 || s.Mean() != 0 || s.StdDev() != 0 || s.MeanCI95() != 0 {
		t.Fatal("empty stream aggregates not zero")
	}
	s.Add(5)
	s.Add(7)
	if s.Mean() != 6 || s.min != 5 || s.Max() != 7 {
		t.Fatalf("plain stream wrong: mean=%v min=%v max=%v", s.Mean(), s.min, s.Max())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile on a non-quantile stream did not panic")
		}
	}()
	s.Quantile(0.5)
}
