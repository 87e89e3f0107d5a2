package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("stream diverged at step %d: %d != %d", i, got, want)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical outputs in 100 draws", same)
	}
}

func TestReseedRestartsStream(t *testing.T) {
	r := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Reseed(7)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("after Reseed, output %d = %d, want %d", i, got, first[i])
		}
	}
}

func TestSplitIndependentOfParentPosition(t *testing.T) {
	a := New(99)
	b := New(99)
	// Advance b; Split must not depend on how many values were drawn.
	for i := 0; i < 57; i++ {
		b.Uint64()
	}
	ca := a.Split(12)
	cb := b.Split(12)
	for i := 0; i < 100; i++ {
		if ca.Uint64() != cb.Uint64() {
			t.Fatal("Split depends on parent stream position")
		}
	}
}

func TestSplitStreamsDiffer(t *testing.T) {
	r := New(5)
	c0 := r.Split(0)
	c1 := r.Split(1)
	collisions := 0
	for i := 0; i < 200; i++ {
		if c0.Uint64() == c1.Uint64() {
			collisions++
		}
	}
	if collisions > 0 {
		t.Fatalf("split streams 0 and 1 collided %d/200 times", collisions)
	}
}

func TestSplitDiffersAcrossSeeds(t *testing.T) {
	c1 := New(1).Split(3)
	c2 := New(2).Split(3)
	if c1.Uint64() == c2.Uint64() && c1.Uint64() == c2.Uint64() {
		t.Fatal("children of different masters coincide")
	}
}

func TestBitIsFair(t *testing.T) {
	r := New(2024)
	const n = 200000
	ones := 0
	for i := 0; i < n; i++ {
		if r.Bit() {
			ones++
		}
	}
	mean := float64(ones) / n
	// 6 sigma for a fair coin: 0.5 ± 6*0.5/sqrt(n) ≈ ±0.0067.
	if math.Abs(mean-0.5) > 0.0067 {
		t.Fatalf("Bit() frequency %.4f deviates from 0.5", mean)
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(3)
	cfg := &quick.Config{MaxCount: 2000}
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		v := r.Uint64n(n)
		return v < n
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestUint64nUniformSmall(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("value %d drawn %d times, want ≈ %.0f", v, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(8)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestBernoulliEdgeCases(t *testing.T) {
	r := New(4)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := New(6)
	const p, n = 0.3, 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	mean := float64(hits) / n
	if math.Abs(mean-p) > 6*math.Sqrt(p*(1-p)/n) {
		t.Fatalf("Bernoulli(%.1f) frequency %.4f", p, mean)
	}
}

func TestBernoulliPow2(t *testing.T) {
	r := New(13)
	// k = 0 is always true.
	for i := 0; i < 10; i++ {
		if !r.BernoulliPow2(0) {
			t.Fatal("BernoulliPow2(0) returned false")
		}
	}
	// k = 3: probability 1/8.
	const n = 160000
	hits := 0
	for i := 0; i < n; i++ {
		if r.BernoulliPow2(3) {
			hits++
		}
	}
	p := 1.0 / 8
	mean := float64(hits) / n
	if math.Abs(mean-p) > 6*math.Sqrt(p*(1-p)/n) {
		t.Fatalf("BernoulliPow2(3) frequency %.5f, want ≈ %.5f", mean, p)
	}
	// Very large k: astronomically unlikely; must return false and not hang.
	for i := 0; i < 4; i++ {
		if r.BernoulliPow2(130) {
			t.Fatal("BernoulliPow2(130) returned true")
		}
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(17)
	const p, n = 0.2, 50000
	sum := 0
	for i := 0; i < n; i++ {
		sum += r.Geom(NewGeom(p))
	}
	mean := float64(sum) / n
	want := (1 - p) / p // 4.0
	if math.Abs(mean-want) > 0.15 {
		t.Fatalf("Geometric(%.1f) mean %.3f, want ≈ %.3f", p, mean, want)
	}
}

func TestGeometricOne(t *testing.T) {
	r := New(18)
	for i := 0; i < 100; i++ {
		if g := r.Geom(NewGeom(1)); g != 0 {
			t.Fatalf("Geometric(1) = %d, want 0", g)
		}
	}
	// A certain success draws no coin: the stream has not moved.
	if r.Uint64() != New(18).Uint64() {
		t.Fatal("Geometric(1) advanced the stream")
	}
}

func TestGeometricTinyPClamped(t *testing.T) {
	r := New(19)
	for i := 0; i < 50; i++ {
		g := r.Geom(NewGeom(1e-300))
		if g < 0 {
			t.Fatalf("Geometric(1e-300) = %d overflowed negative", g)
		}
	}
}

func TestGeometricPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Geometric(0) did not panic")
		}
	}()
	NewGeom(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := New(21)
	for _, n := range []int{0, 1, 2, 5, 17, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(22)
	const n, draws = 5, 50000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Perm(n)[0]]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("Perm first element %d frequency %d, want ≈ %.0f", v, c, want)
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	r := New(42)
	for i := 0; i < 100; i++ {
		r.Uint64() // advance mid-stream
	}
	blob, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := New(0)
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if r.Uint64() != restored.Uint64() {
			t.Fatalf("restored stream diverged at %d", i)
		}
	}
	// Split must also be preserved (it derives from the stored seed).
	a, b := r.Split(7), restored.Split(7)
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("restored Split diverged")
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	r := New(1)
	if err := r.UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Fatal("short blob accepted")
	}
	if err := r.UnmarshalBinary(make([]byte, 40)); err == nil {
		t.Fatal("all-zero state accepted")
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkBit(b *testing.B) {
	r := New(1)
	var sink bool
	for i := 0; i < b.N; i++ {
		sink = r.Bit()
	}
	_ = sink
}

func BenchmarkSplit(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Split(uint64(i))
	}
}
