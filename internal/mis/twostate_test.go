package mis

import (
	"testing"
	"testing/quick"

	"ssmis/internal/graph"
	"ssmis/internal/verify"
	"ssmis/internal/xrand"
)

func requireMIS(t *testing.T, g *graph.Graph, p Process) {
	t.Helper()
	if !p.Stabilized() {
		t.Fatalf("%s did not stabilize within cap on %v", p.Name(), g)
	}
	if err := verify.MIS(g, p.Black); err != nil {
		t.Fatalf("%s stabilized to a non-MIS: %v", p.Name(), err)
	}
}

func TestTwoStateStabilizesOnFamilies(t *testing.T) {
	rng := xrand.New(1)
	families := map[string]*graph.Graph{
		"single":     graph.Empty(1),
		"edgeless":   graph.Empty(20),
		"edge":       graph.Path(2),
		"path":       graph.Path(50),
		"cycle":      graph.Cycle(51),
		"star":       graph.Star(40),
		"clique":     graph.Complete(64),
		"tree":       graph.RandomTree(200, rng),
		"grid":       graph.Grid(10, 10),
		"gnp-sparse": graph.Gnp(300, 0.01, rng),
		"gnp-dense":  graph.Gnp(120, 0.3, rng),
		"bipartite":  completeBipartite(10, 15),
		"cliques":    graph.DisjointCliques(8, 8),
	}
	for name, g := range families {
		p := NewTwoState(g, WithSeed(42))
		Run(p, DefaultRoundCap(g.N()))
		if !p.Stabilized() {
			t.Errorf("%s: not stabilized after %d rounds", name, p.Round())
			continue
		}
		requireMIS(t, g, p)
	}
}

func TestTwoStateAllInitsConverge(t *testing.T) {
	rng := xrand.New(2)
	g := graph.Gnp(150, 0.05, rng)
	for _, init := range AllInits() {
		p := NewTwoState(g, WithSeed(7), WithInit(init))
		Run(p, DefaultRoundCap(g.N()))
		if !p.Stabilized() {
			t.Errorf("init %v: not stabilized", init)
			continue
		}
		requireMIS(t, g, p)
	}
}

func TestTwoStateEmptyGraphStabilizedImmediately(t *testing.T) {
	p := NewTwoState(graph.Empty(0))
	if !p.Stabilized() {
		t.Fatal("empty graph not immediately stabilized")
	}
	p.Step() // must be a no-op
	if p.Round() != 0 {
		t.Fatal("Step advanced a stabilized process")
	}
}

func TestTwoStateIsolatedVerticesTurnBlack(t *testing.T) {
	g := graph.Empty(10)
	p := NewTwoState(g, WithSeed(3), WithInit(InitAllWhite))
	Run(p, 1000)
	for u := 0; u < g.N(); u++ {
		if !p.Black(u) {
			t.Fatalf("isolated vertex %d not black at stabilization", u)
		}
	}
}

func TestTwoStateDeterminism(t *testing.T) {
	g := graph.Gnp(100, 0.05, xrand.New(4))
	a := NewTwoState(g, WithSeed(99))
	b := NewTwoState(g, WithSeed(99))
	ra := Run(a, 10000)
	rb := Run(b, 10000)
	if ra != rb {
		t.Fatalf("same seed, different results: %+v vs %+v", ra, rb)
	}
	for u := 0; u < g.N(); u++ {
		if a.Black(u) != b.Black(u) {
			t.Fatalf("final colors diverge at %d", u)
		}
	}
}

func TestTwoStateSeedsDiffer(t *testing.T) {
	g := graph.Complete(64)
	sawDifferent := false
	base := Run(NewTwoState(g, WithSeed(1)), 10000).Rounds
	for s := uint64(2); s < 12; s++ {
		if Run(NewTwoState(g, WithSeed(s)), 10000).Rounds != base {
			sawDifferent = true
			break
		}
	}
	if !sawDifferent {
		t.Fatal("ten different seeds all stabilized in the same round")
	}
}

func TestTwoStateStablePersists(t *testing.T) {
	// Once stabilized, stepping must not change anything.
	g := graph.Gnp(80, 0.08, xrand.New(5))
	p := NewTwoState(g, WithSeed(6))
	Run(p, 10000)
	final := p.BlackMask()
	round := p.Round()
	for i := 0; i < 50; i++ {
		p.Step()
	}
	if p.Round() != round {
		t.Fatal("Step advanced after stabilization")
	}
	for u, b := range p.BlackMask() {
		if b != final[u] {
			t.Fatal("colors changed after stabilization")
		}
	}
}

// I_t (stable black vertices) is monotone non-decreasing for the 2-state
// process: once black with no black neighbors, a vertex keeps that status.
func TestTwoStateStableBlackMonotone(t *testing.T) {
	g := graph.Gnp(120, 0.06, xrand.New(7))
	p := NewTwoState(g, WithSeed(8))
	prev := verify.StableBlack(g, p.Black)
	for r := 0; r < 400 && !p.Stabilized(); r++ {
		p.Step()
		cur := verify.StableBlack(g, p.Black)
		ok := true
		prev.ForEach(func(u int) {
			if !cur.Contains(u) {
				ok = false
			}
		})
		if !ok {
			t.Fatalf("round %d: I_t lost a vertex", p.Round())
		}
		prev = cur
	}
}

// The 2-state activity predicate: Stabilized ⇔ ActiveCount()==0 ⇔ MIS.
func TestTwoStateActiveCountConsistency(t *testing.T) {
	g := graph.Cycle(31)
	p := NewTwoState(g, WithSeed(9))
	for !p.Stabilized() {
		manual := 0
		for u := 0; u < g.N(); u++ {
			blackNbr := false
			for _, v := range g.Neighbors(u) {
				if p.Black(int(v)) {
					blackNbr = true
					break
				}
			}
			if p.Black(u) == blackNbr {
				manual++
			}
		}
		if manual != p.ActiveCount() {
			t.Fatalf("round %d: ActiveCount %d, manual %d", p.Round(), p.ActiveCount(), manual)
		}
		p.Step()
		if p.Round() > 10000 {
			t.Fatal("did not stabilize")
		}
	}
}

func TestTwoStateWithInitialBlack(t *testing.T) {
	g := graph.Path(4)
	// Start exactly at an MIS: {0, 2} — hold on, 2-3 edge: 3 white has black
	// neighbor 2 ✓; this is already stable.
	mask := []bool{true, false, true, false}
	p := NewTwoState(g, WithInitialBlack(mask))
	if !p.Stabilized() {
		t.Fatal("exact MIS initialization not recognized as stabilized")
	}
	if p.Round() != 0 {
		t.Fatal("rounds nonzero")
	}
	// Mask is copied.
	mask[0] = false
	if !p.Black(0) {
		t.Fatal("initial mask not copied")
	}
}

func TestTwoStateWithInitialBlackWrongLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewTwoState(graph.Path(3), WithInitialBlack([]bool{true}))
}

// The complete-graph fast path must replay the generic counter path. K_40
// takes the fast path; K_40 plus one isolated vertex is not complete, so it
// runs the generic counters, and its isolated vertex starts black and never
// moves. Vertex streams are keyed by vertex id, so the clique's 40 vertices
// see the same coins in both runs.
func TestTwoStateCompleteFastPathMatchesGeneric(t *testing.T) {
	const n = 40
	g := graph.Complete(n)
	fast := NewTwoState(g, WithSeed(10))
	b := graph.NewBuilder(n + 1)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	init := make([]bool, n+1)
	for u := 0; u < n; u++ {
		init[u] = fast.Black(u)
	}
	init[n] = true
	slow := NewTwoState(b.Build(), WithSeed(10), WithInitialBlack(init))
	if fast.core.CounterPlane().Active {
		t.Fatal("complete graph not detected")
	}
	if !slow.core.CounterPlane().Active {
		t.Fatal("generic counters not engaged off the complete graph")
	}
	for !fast.Stabilized() || !slow.Stabilized() {
		fast.Step()
		slow.Step()
		for u := 0; u < n; u++ {
			if fast.Black(u) != slow.Black(u) {
				t.Fatalf("round %d: fast/slow diverged at %d", fast.Round(), u)
			}
		}
		if fast.Round() > 10000 {
			t.Fatal("no stabilization")
		}
	}
	if fast.Round() != slow.Round() {
		t.Fatal("fast and slow stabilized at different rounds")
	}
	if fast.RandomBits() != slow.RandomBits() {
		t.Fatal("fast and slow drew different numbers of random bits")
	}
}

func TestTwoStateCorruptionRecovery(t *testing.T) {
	g := graph.Gnp(100, 0.07, xrand.New(11))
	p := NewTwoState(g, WithSeed(12))
	Run(p, 10000)
	requireMIS(t, g, p)
	// Flip 20 vertices adversarially.
	corrupt := p.BlackMask()
	for u := 0; u < 20; u++ {
		corrupt[u] = !corrupt[u]
	}
	p.CorruptAll(corrupt)
	Run(p, 10000)
	requireMIS(t, g, p)
	// Single-vertex corruption via Corrupt.
	p.Corrupt(0, !p.Black(0))
	Run(p, 10000)
	requireMIS(t, g, p)
}

func TestTwoStateRandomBitsAccounting(t *testing.T) {
	g := graph.Complete(32)
	p := NewTwoState(g, WithSeed(13), WithInit(InitAllWhite))
	// Round 1: all 32 vertices active (all white, no black neighbors), so
	// exactly 32 bits are consumed.
	p.Step()
	if p.RandomBits() != 32 {
		t.Fatalf("bits after first round = %d, want 32", p.RandomBits())
	}
	Run(p, 10000)
	// One bit per active vertex per round; total bits <= n * rounds.
	if p.RandomBits() > int64(32*p.Round()) {
		t.Fatalf("bits %d exceed n·rounds %d", p.RandomBits(), 32*p.Round())
	}
}

func TestTwoStateCountsExposed(t *testing.T) {
	g := graph.Path(3)
	p := NewTwoState(g, WithInitialBlack([]bool{true, true, true}))
	if p.BlackCount() != 3 {
		t.Fatal("BlackCount wrong")
	}
	if p.StableBlackCount() != 0 {
		t.Fatal("StableBlackCount wrong for all-black path")
	}
	if p.States() != 2 || p.Name() != "2-state" || p.N() != 3 {
		t.Fatal("metadata wrong")
	}
}

// Property: on random graphs with random seeds, the stabilized 2-state
// process always yields an MIS.
func TestTwoStateMISProperty(t *testing.T) {
	master := xrand.New(14)
	f := func(seed uint64) bool {
		r := master.Split(seed)
		n := 2 + r.Intn(80)
		g := graph.Gnp(n, r.Float64()*0.3, r)
		p := NewTwoState(g, WithSeed(seed))
		Run(p, DefaultRoundCap(n))
		return p.Stabilized() && verify.MIS(g, p.Black) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Theorem 8 sanity: on K_n, the mean stabilization time grows like log n —
// measured loosely: T(K_256) averaged over trials stays below 12·log2(256).
func TestTwoStateCliqueMeanRounds(t *testing.T) {
	const n, trials = 256, 30
	sum := 0
	for s := uint64(0); s < trials; s++ {
		res := Run(NewTwoState(graph.Complete(n), WithSeed(s)), 100000)
		if !res.Stabilized {
			t.Fatal("clique run did not stabilize")
		}
		sum += res.Rounds
	}
	mean := float64(sum) / trials
	if mean > 12*8 { // 12·log2(256)
		t.Fatalf("K_%d mean stabilization %.1f rounds, suspiciously high", n, mean)
	}
}

// completeBipartite builds K_{a,b} with parts [0,a) and [a,a+b).
func completeBipartite(a, b int) *graph.Graph {
	bl := graph.NewBuilder(a + b)
	for u := 0; u < a; u++ {
		for v := 0; v < b; v++ {
			bl.AddEdge(u, a+v)
		}
	}
	return bl.Build()
}
