// Package xrand provides a small, deterministic, splittable pseudo-random
// number generator used throughout the ssmis module.
//
// The processes in the paper flip an independent fair coin φ_t(u) for every
// vertex u in every round t. To make whole experiments reproducible from a
// single seed — and to make the array-based simulator and the node-program
// runtimes draw *exactly* the same coins — we need per-vertex generator
// streams derived deterministically from a master seed. The standard library
// generator is neither splittable nor guaranteed stable across Go releases,
// so we implement xoshiro256++ seeded via splitmix64, following the reference
// algorithms of Blackman and Vigna.
package xrand

import "math/bits"

// Rand is a xoshiro256++ pseudo-random number generator. It is NOT safe for
// concurrent use; use Split to derive independent streams for concurrent
// consumers.
type Rand struct {
	s [4]uint64
	// seed is the value this generator was created from; Split derives child
	// streams from it so that splitting is independent of how far the parent
	// stream has advanced.
	seed uint64
}

// splitmix64 advances the given state and returns the next output. It is used
// both for seeding xoshiro state and for deriving split streams, as
// recommended by the xoshiro authors.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator deterministically seeded from seed. Distinct seeds
// yield (with overwhelming probability) uncorrelated streams.
func New(seed uint64) *Rand {
	var r Rand
	r.Reseed(seed)
	return &r
}

// Reseed resets the generator to the state derived from seed, as if freshly
// created by New(seed).
func (r *Rand) Reseed(seed uint64) {
	r.seed = seed
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro must not be seeded with the all-zero state. splitmix64 maps at
	// most one seed to each output, so four consecutive zero outputs cannot
	// happen, but guard anyway to keep the invariant locally obvious.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Split returns a new generator whose stream is a deterministic function of
// the parent's seed material and the given index, independent of how many
// values the parent has produced. It does not advance the parent. Use it to
// derive per-vertex streams: stream i of a master generator is always the
// same for the same master seed.
func (r *Rand) Split(index uint64) *Rand {
	child := new(Rand)
	r.SplitInto(child, index)
	return child
}

// SplitInto reseeds dst to the exact stream Split(index) would return,
// without allocating. Batch workers use it to re-derive per-vertex streams
// into a reusable backing array, so a run costs zero generator allocations.
func (r *Rand) SplitInto(dst *Rand, index uint64) {
	sm := r.seed ^ bits.RotateLeft64(0xd1b54a32d192ed03*(index+1), 17)
	dst.Reseed(splitmix64(&sm))
}

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Bit returns a single fair random bit. This is the coin φ_t(u) of the paper:
// each call costs the process exactly one random bit.
func (r *Rand) Bit() bool {
	return r.Uint64()>>63 == 1
}

// Uint64n returns a uniformly random integer in [0, n). It panics if n == 0.
// It uses Lemire's multiply-shift rejection method.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniformly random int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniformly random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * 0x1p-53
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// BernoulliPow2 returns true with probability 2^-k, consuming k random bits
// in expectation O(1) words. The randomized logarithmic switch uses ζ = 2^-7,
// and the paper counts random bits per round, so we provide the exact
// dyadic coin rather than a float comparison.
func (r *Rand) BernoulliPow2(k uint) bool {
	for k > 64 {
		if r.Uint64() != 0 {
			return false
		}
		k -= 64
	}
	if k == 0 {
		return true
	}
	return r.Uint64()>>(64-k) == 0
}

// GeomDist is the Geometric(p) distribution with its inverse-CDF divisor
// log(1−p) computed once. The G(n,p) and Chung–Lu generators draw one
// sample per edge to skip non-edges in O(#edges) total time.
type GeomDist struct {
	logQ float64 // log(1−p); −Inf when p = 1
}

// NewGeom returns the Geometric(p) distribution. It panics if p <= 0 or
// p > 1.
func NewGeom(p float64) GeomDist {
	if p <= 0 || p > 1 {
		panic("xrand: Geometric requires 0 < p <= 1")
	}
	return GeomDist{logQ: logFloat(1.0 - p)}
}

// Geom returns a sample from d. At p = 1 it is 0 and draws nothing.
func (r *Rand) Geom(d GeomDist) int {
	if isNegInf(d.logQ) {
		return 0
	}
	// Inverse-CDF sampling: floor(log(U) / log(1-p)) with U in (0,1].
	u := 1.0 - r.Float64() // (0, 1]
	f := logFloat(u) / d.logQ
	// For minuscule p, 1-p rounds to 1 and the division degenerates (±Inf
	// or NaN), and even finite skip distances can exceed the int range.
	// Clamp to a huge positive skip — callers compare against an index
	// bound, so "effectively never" is the correct semantics.
	const maxSkip = 1 << 62
	if !(f >= 0 && f < maxSkip) { // catches NaN, ±Inf and overflow
		return maxSkip
	}
	return int(f)
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher-Yates shuffle of n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
