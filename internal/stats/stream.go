package stats

// Streaming aggregation. Sweep-scale batch runs fold each outcome into an
// online accumulator instead of materializing per-run sample slices: the
// mean and confidence interval come from Welford's algorithm, and — because
// the quantities the experiments aggregate (stabilization rounds, random
// bits) take values from a small set of integers — the median and tail
// quantiles come exactly from a sparse value-count map rather than from an
// approximation sketch. Aggregation is a pure function of the sample
// SEQUENCE: feeding the same outcomes in the same order yields bit-identical
// summaries, which is what lets internal/batch promise identical results at
// any worker count (outcomes are delivered to sinks in job order).

import (
	"math"
	"sort"
)

// Stream is an online sample accumulator: Welford mean/variance plus
// min/max, and (for quantile streams) exact order statistics via value
// counts. The zero value is NOT usable; construct with NewStream or
// NewQuantileStream.
type Stream struct {
	n        int
	mean, m2 float64
	min, max float64
	counts   map[float64]int // nil unless quantile tracking is on
}

// NewStream returns an accumulator tracking mean, deviation, and extrema.
func NewStream() *Stream { return &Stream{} }

// NewQuantileStream returns an accumulator that additionally tracks exact
// quantiles through a value-count map. Memory is O(#distinct values) — for
// integer-valued samples such as round counts this is far below O(#samples).
func NewQuantileStream() *Stream {
	return &Stream{counts: make(map[float64]int)}
}

// Add folds x into the accumulator.
func (s *Stream) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
	if s.counts != nil {
		s.counts[x]++
	}
}

// N returns the number of samples folded in so far.
func (s *Stream) N() int { return s.n }

// Mean returns the running mean (0 for an empty stream).
func (s *Stream) Mean() float64 { return s.mean }

// Max returns the largest sample seen (0 for an empty stream).
func (s *Stream) Max() float64 { return s.max }

// StdDev returns the sample standard deviation (n-1 denominator; 0 for
// fewer than two samples).
func (s *Stream) StdDev() float64 {
	if s.n < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.n-1))
}

// MeanCI95 returns the normal-approximation 95% confidence half-width of
// the mean, matching Summary.MeanCI95.
func (s *Stream) MeanCI95() float64 {
	if s.n < 2 {
		return 0
	}
	return 1.96 * s.StdDev() / math.Sqrt(float64(s.n))
}

// sortedValues returns the distinct values in increasing order; only
// quantile streams have them.
func (s *Stream) sortedValues() []float64 {
	if s.counts == nil {
		panic("stats: quantiles require NewQuantileStream")
	}
	vals := make([]float64, 0, len(s.counts))
	for v := range s.counts {
		vals = append(vals, v)
	}
	sort.Float64s(vals)
	return vals
}

// Quantile returns the q-quantile (0 <= q <= 1), interpolating linearly
// between order statistics reconstructed from value counts.
// It panics on an empty stream or a non-quantile stream.
func (s *Stream) Quantile(q float64) float64 {
	if s.n == 0 {
		panic("stats: Quantile of empty stream")
	}
	vals := s.sortedValues()
	orderStat := func(k int) float64 {
		seen := 0
		for _, v := range vals {
			seen += s.counts[v]
			if k < seen {
				return v
			}
		}
		return vals[len(vals)-1]
	}
	if q <= 0 {
		return vals[0]
	}
	if q >= 1 {
		return vals[len(vals)-1]
	}
	pos := q * float64(s.n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	vlo := orderStat(lo)
	if lo == hi {
		return vlo
	}
	vhi := orderStat(hi)
	frac := pos - float64(lo)
	return vlo*(1-frac) + vhi*frac
}

// Values reconstructs the full sample in increasing order (multiplicity
// preserved, arrival order not). Compatibility shim for the few analyses
// that need raw samples (tail-slope fits); everything else should stay
// streaming. Panics on a non-quantile stream.
func (s *Stream) Values() []float64 {
	vals := s.sortedValues()
	out := make([]float64, 0, s.n)
	for _, v := range vals {
		for i := 0; i < s.counts[v]; i++ {
			out = append(out, v)
		}
	}
	return out
}

// Summary renders the accumulated sample as the descriptive-statistics
// struct the experiment tables consume. Median/P90/P99 require a quantile
// stream. It panics on an empty stream.
func (s *Stream) Summary() Summary {
	if s.n == 0 {
		panic("stats: Summary of empty stream")
	}
	return Summary{
		N:      s.n,
		Mean:   s.mean,
		StdDev: s.StdDev(),
		Min:    s.min,
		Max:    s.max,
		Median: s.Quantile(0.5),
		P90:    s.Quantile(0.9),
		P99:    s.Quantile(0.99),
	}
}
