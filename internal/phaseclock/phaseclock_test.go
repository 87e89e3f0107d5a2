package phaseclock

import (
	"math"
	"testing"

	"ssmis/internal/graph"
	"ssmis/internal/xrand"
)

func TestLevelsStayInRange(t *testing.T) {
	g := graph.Gnp(60, 0.1, xrand.New(1))
	s := NewStandalone(g, 2)
	for r := 0; r < 500; r++ {
		s.Step()
		for u := 0; u < g.N(); u++ {
			if l := s.Level(u); l > s.Top() {
				t.Fatalf("round %d: level(%d) = %d > top %d", r, u, l, s.Top())
			}
		}
	}
}

func TestZeroJumpsToTop(t *testing.T) {
	g := graph.Path(5)
	c := New(g)
	rng := xrand.New(3)
	rngs := make([]*xrand.Rand, g.N())
	for u := range rngs {
		rngs[u] = rng.Split(uint64(u))
	}
	// All levels start 0; one step must send everyone to top.
	c.Step(rngs)
	for u := 0; u < g.N(); u++ {
		if c.Level(u) != c.Top() {
			t.Fatalf("level(%d) = %d, want top %d", u, c.Level(u), c.Top())
		}
	}
}

func TestDeterminism(t *testing.T) {
	g := graph.Gnp(40, 0.15, xrand.New(4))
	a := NewStandalone(g, 9)
	b := NewStandalone(g, 9)
	for r := 0; r < 200; r++ {
		a.Step()
		b.Step()
		for u := 0; u < g.N(); u++ {
			if a.Level(u) != b.Level(u) {
				t.Fatalf("round %d: levels diverged at %d", r, u)
			}
		}
	}
}

func TestStatesAndTop(t *testing.T) {
	g := graph.Path(3)
	c := New(g) // D = 3
	if c.States() != 6 || c.Top() != 5 {
		t.Fatalf("D=3 clock: states=%d top=%d, want 6, 5", c.States(), c.Top())
	}
	c7 := New(g, WithD(7))
	if c7.States() != 10 || c7.Top() != 9 {
		t.Fatalf("D=7 clock: states=%d top=%d", c7.States(), c7.Top())
	}
}

func TestSetLevelValidation(t *testing.T) {
	c := New(graph.Path(3))
	c.SetLevel(0, 5)
	if c.Level(0) != 5 {
		t.Fatal("SetLevel failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetLevel above top did not panic")
		}
	}()
	c.SetLevel(0, 6)
}

func TestOnMapping(t *testing.T) {
	c := New(graph.Path(3))
	for lvl := uint8(0); lvl <= 5; lvl++ {
		c.SetLevel(0, lvl)
		if got, want := c.On(0), lvl <= 2; got != want {
			t.Fatalf("On at level %d = %v, want %v", lvl, got, want)
		}
	}
}

// onOffRuns records, for one vertex, the lengths of maximal runs of
// consecutive equal switch values over a window of rounds.
func onOffRuns(s *Standalone, u, rounds int) (onRuns, offRuns []int) {
	cur := s.On(u)
	length := 1
	for r := 0; r < rounds; r++ {
		s.Step()
		v := s.On(u)
		if v == cur {
			length++
			continue
		}
		if cur {
			onRuns = append(onRuns, length)
		} else {
			offRuns = append(offRuns, length)
		}
		cur = v
		length = 1
	}
	return onRuns, offRuns
}

// Lemma 27 / Definition 25, property (S3): on a diameter-<=2 graph, after a
// constant number of rounds every run of consecutive ON values has length at
// most b = 3.
func TestOnRunsShortOnDiameterTwo(t *testing.T) {
	g := graph.Gnp(80, 0.5, xrand.New(5))
	if !g.DiameterAtMostTwo() {
		t.Skip("sampled graph not of diameter <= 2")
	}
	s := NewStandalone(g, 11)
	// Burn in: t* + 2 <= 7 rounds per the proof; use a few more.
	for r := 0; r < 20; r++ {
		s.Step()
	}
	onRuns, _ := onOffRuns(s, 0, 3000)
	for _, l := range onRuns {
		if l > 3 {
			t.Fatalf("ON run of length %d > 3 after synchronization", l)
		}
	}
	if len(onRuns) == 0 {
		t.Fatal("no ON runs observed in 3000 rounds")
	}
}

// Property (S1): on ANY graph, every OFF run is at most a·ln n w.h.p.
// (a = 4/ζ = 512). We use a smaller ζ = 2^-3 (a = 32) to keep the test
// fast while exercising the same mechanism.
func TestOffRunsBounded(t *testing.T) {
	g := graph.Gnp(50, 0.08, xrand.New(6))
	s := NewStandalone(g, 12, WithZetaLog2(3))
	const a = 32 // 4/ζ
	bound := int(a * math.Log(float64(g.N())))
	for r := 0; r < 30; r++ {
		s.Step() // burn in
	}
	_, offRuns := onOffRuns(s, 1, 4000)
	for _, l := range offRuns {
		if l > bound {
			t.Fatalf("OFF run of length %d > a·ln n = %d", l, bound)
		}
	}
}

// Property (S2): on diameter-<=2 graphs, after synchronization OFF runs are
// at least (a/6)·ln n long. Again with ζ = 2^-3 for test speed.
func TestOffRunsLongOnDiameterTwo(t *testing.T) {
	g := graph.Gnp(64, 0.6, xrand.New(7))
	if !g.DiameterAtMostTwo() {
		t.Skip("sampled graph not of diameter <= 2")
	}
	s := NewStandalone(g, 13, WithZetaLog2(3))
	const a = 32
	minLen := int(a / 6 * math.Log(float64(g.N())))
	for r := 0; r < 100; r++ {
		s.Step() // burn in past synchronization
	}
	_, offRuns := onOffRuns(s, 2, 5000)
	if len(offRuns) == 0 {
		t.Fatal("no OFF runs observed")
	}
	for i, l := range offRuns {
		// Skip a possibly-truncated first run.
		if i == 0 {
			continue
		}
		if l < minLen {
			t.Fatalf("OFF run of length %d < (a/6)·ln n = %d on diam-2 graph", l, minLen)
		}
	}
}

// On a diameter-<=2 graph all vertices synchronize: once synchronized they
// hit level 0 simultaneously.
func TestSynchronizationOnDiameterTwo(t *testing.T) {
	g := graph.Complete(30)
	s := NewStandalone(g, 14)
	for r := 0; r < 50; r++ {
		s.Step()
	}
	for r := 0; r < 2000; r++ {
		s.Step()
		anyZero, allZero := false, true
		for u := 0; u < g.N(); u++ {
			if s.Level(u) == 0 {
				anyZero = true
			} else {
				allZero = false
			}
		}
		if anyZero && !allZero {
			t.Fatalf("round %d: some but not all vertices at level 0", r)
		}
	}
}

func TestCompleteGraphFastPathMatchesGeneric(t *testing.T) {
	// Build K_n twice: once detected as complete, once with the fast path
	// disabled by constructing the clock manually.
	g := graph.Complete(12)
	a := NewStandalone(g, 15)
	b := NewStandalone(g, 15)
	b.completeG = false
	b.recount() // the complete-graph path keeps no counts
	for r := 0; r < 300; r++ {
		a.Step()
		b.Step()
		for u := 0; u < g.N(); u++ {
			if a.Level(u) != b.Level(u) {
				t.Fatalf("fast path diverged at round %d vertex %d", r, u)
			}
		}
	}
}

func TestRandomBitsAccounting(t *testing.T) {
	g := graph.Path(4)
	s := NewStandalone(g, 16)
	for r := 0; r < 100; r++ {
		s.Step()
	}
	if s.RandomBits() == 0 {
		t.Fatal("no random bits accounted")
	}
	// Each top-level vertex costs exactly 7 bits per round; bits must be a
	// multiple of 7.
	if s.RandomBits()%7 != 0 {
		t.Fatalf("bits = %d not a multiple of ζ-bit cost 7", s.RandomBits())
	}
}

func TestInvalidDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("D=0 did not panic")
		}
	}()
	New(graph.Path(3), WithD(0))
}

func TestIsolatedVertexCycles(t *testing.T) {
	g := graph.Empty(1)
	s := NewStandalone(g, 17)
	seenTop, seenZero := false, false
	for r := 0; r < 3000; r++ {
		s.Step()
		switch s.Level(0) {
		case s.Top():
			seenTop = true
		case 0:
			seenZero = true
		}
	}
	if !seenTop || !seenZero {
		t.Fatalf("isolated vertex did not cycle: top=%v zero=%v", seenTop, seenZero)
	}
}

func TestExportOnMatchesOn(t *testing.T) {
	// The SWAR export against the scalar On predicate: every size shape
	// (full words, ragged tails, sub-word universes), every threshold of the
	// paper's switch, and a clock deep enough to force the byte fallback.
	cases := []struct {
		n     int
		d     int
		onMax uint8
	}{
		{1, 3, 2}, {63, 3, 2}, {64, 3, 2}, {65, 3, 2}, {256, 3, 2},
		{300, 3, 0}, {300, 3, 5}, {192, 10, 4}, {200, 130, 64},
	}
	for _, tc := range cases {
		g := graph.Gnp(tc.n, 0.05, xrand.New(uint64(tc.n)))
		c := New(g, WithD(tc.d), WithOnThreshold(tc.onMax))
		c.RandomizeLevels(xrand.New(99))
		dst := make([]uint64, (tc.n+63)/64)
		c.ExportOn(dst)
		for u := 0; u < tc.n; u++ {
			got := dst[u/64]>>(uint(u)%64)&1 == 1
			if got != c.On(u) {
				t.Fatalf("n=%d d=%d onMax=%d: exported bit %d = %v, On = %v (level %d)",
					tc.n, tc.d, tc.onMax, u, got, c.On(u), c.Level(u))
			}
		}
		if last := tc.n % 64; last != 0 {
			if dst[len(dst)-1]>>uint(last) != 0 {
				t.Fatalf("n=%d: phantom bits beyond the universe", tc.n)
			}
		}
	}
}
