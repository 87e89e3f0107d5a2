package beeping

import (
	"testing"

	"ssmis/internal/graph"
	"ssmis/internal/mis"
	"ssmis/internal/noderun"
	"ssmis/internal/verify"
	"ssmis/internal/xrand"
)

func TestBeepingStabilizesToMIS(t *testing.T) {
	rng := xrand.New(1)
	families := map[string]*graph.Graph{
		"path":   graph.Path(30),
		"clique": graph.Complete(24),
		"star":   graph.Star(20),
		"gnp":    graph.Gnp(80, 0.08, rng),
		"tree":   graph.RandomTree(60, rng),
	}
	for name, g := range families {
		m := NewMIS(g, 42, nil)
		_, ok := m.Run(mis.DefaultRoundCap(g.N()))
		if !ok {
			t.Errorf("%s: beeping protocol did not stabilize", name)
			continue
		}
		if err := verify.MIS(g, m.Black); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// The headline equivalence (experiment E12): the beeping runtime and the
// array simulator execute the 2-state process coin-for-coin identically —
// same graph, same seed, same initial colors produce the same color vector
// at every round and stabilize at the same round.
func TestBeepingMatchesSimulatorExactly(t *testing.T) {
	rng := xrand.New(2)
	for trial := 0; trial < 8; trial++ {
		seed := uint64(100 + trial)
		g := graph.Gnp(60, 0.1, rng.Split(uint64(trial)))
		sim := mis.NewTwoState(g, mis.WithSeed(seed))
		bee := NewMIS(g, seed, nil)

		// Initial colors must already agree (shared InitRandom stream).
		for u := 0; u < g.N(); u++ {
			if sim.Black(u) != bee.Black(u) {
				t.Fatalf("trial %d: initial colors differ at %d", trial, u)
			}
		}
		for r := 0; r < 10000; r++ {
			simDone, beeDone := sim.Stabilized(), bee.Stabilized()
			if simDone != beeDone {
				t.Fatalf("trial %d round %d: stabilization disagrees (sim=%v bee=%v)",
					trial, r, simDone, beeDone)
			}
			if simDone {
				break
			}
			sim.Step()
			bee.engine.Step()
			for u := 0; u < g.N(); u++ {
				if sim.Black(u) != bee.Black(u) {
					t.Fatalf("trial %d round %d: colors diverge at vertex %d", trial, r+1, u)
				}
			}
		}
		if !sim.Stabilized() {
			t.Fatalf("trial %d: no stabilization", trial)
		}
	}
}

func TestBeepingExplicitInitialColors(t *testing.T) {
	g := graph.Path(4)
	initial := []bool{true, false, true, false} // already an MIS
	m := NewMIS(g, 1, initial)
	if !m.Stabilized() {
		t.Fatal("MIS initialization not stabilized")
	}
	rounds, ok := m.Run(100)
	if rounds != 0 || !ok {
		t.Fatalf("Run on stabilized protocol: rounds=%d ok=%v", rounds, ok)
	}
}

func TestBeepingRandomBitsGrowOnlyWhenActive(t *testing.T) {
	g := graph.Complete(16)
	m := NewMIS(g, 3, make([]bool, 16)) // all white: everyone active
	m.engine.Step()
	if m.RandomBits() != 16 {
		t.Fatalf("bits after round 1 = %d, want 16", m.RandomBits())
	}
	m.Run(mis.DefaultRoundCap(16))
	bits := m.RandomBits()
	m.engine.Step() // stabilized: nobody active, no bits
	if m.RandomBits() != bits {
		t.Fatal("stabilized round consumed random bits")
	}
}

// The paper (§1) requires SENDER collision detection for the 2-state
// process: a black node must hear whether a neighbor beeps while itself
// beeping. This test demonstrates the necessity — under the classic no-CD
// beeping model, two adjacent black nodes each hear silence (their own
// transmission masks reception), conclude they are consistent, and stay
// black forever: a stable-looking configuration that is not independent.
func TestCollisionDetectionIsNecessary(t *testing.T) {
	g := graph.Path(2)
	mkNode := func(seed uint64) *node {
		return &node{black: true, rng: xrand.New(seed)}
	}
	nodes := []*node{mkNode(1), mkNode(2)}
	progs := make([]noderun.Program, 2)
	for i, nd := range nodes {
		progs[i] = nd
	}
	noCD := noderun.Model{Name: "beeping", Channels: 1, MaxBeepsPerNode: 1}
	engine := noderun.NewEngine(g, noCD, progs)
	for r := 0; r < 100; r++ {
		engine.Step()
	}
	// Under no-CD the deadlock persists: both still black, violating
	// independence — exactly the failure the full-duplex assumption
	// prevents.
	if !nodes[0].black || !nodes[1].black {
		t.Fatal("expected the no-CD deadlock: both nodes should remain black")
	}
	if err := verify.Independent(g, func(u int) bool { return nodes[u].black }); err == nil {
		t.Fatal("adjacent black pair should violate independence")
	}
	// And the same configuration under full duplex resolves.
	nodesCD := []*node{mkNode(1), mkNode(2)}
	progsCD := make([]noderun.Program, 2)
	for i, nd := range nodesCD {
		progsCD[i] = nd
	}
	engineCD := noderun.NewEngine(g, noderun.BeepingCD(), progsCD)
	for r := 0; r < 1000 && nodesCD[0].black == nodesCD[1].black; r++ {
		engineCD.Step()
	}
	if nodesCD[0].black == nodesCD[1].black {
		t.Fatal("full-duplex engine did not break the black-black symmetry")
	}
}

func TestBeepingRoundCounter(t *testing.T) {
	g := graph.Cycle(9)
	m := NewMIS(g, 4, nil)
	r0 := m.Round()
	m.engine.Step()
	if m.Round() != r0+1 {
		t.Fatal("round counter did not advance")
	}
}

// A malformed initial coloring is a caller bug: the constructor names the
// argument and the bad length instead of indexing out of range or silently
// ignoring the tail.
func TestNewMISRejectsMalformedInitialColors(t *testing.T) {
	for _, c := range []struct {
		name    string
		initial []bool
		want    string
	}{
		{"short", make([]bool, 3), "beeping: initialBlack length 3 != n 10"},
		{"long", make([]bool, 11), "beeping: initialBlack length 11 != n 10"},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if got := recover(); got != c.want {
					t.Fatalf("panic %v, want %q", got, c.want)
				}
			}()
			NewMIS(graph.Path(10), 1, c.initial)
		})
	}
}
