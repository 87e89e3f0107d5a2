package baseline

import (
	"testing"

	"ssmis/internal/graph"
	"ssmis/internal/xrand"
)

func TestRestartMISConvergesOnDiameterTwo(t *testing.T) {
	// Diameter-2 graph, clock D=3: after synchronization every phase is a
	// clean global start and a valid MIS appears quickly.
	g := graph.Gnp(80, 0.4, xrand.New(1))
	if !g.DiameterAtMostTwo() {
		t.Skip("sampled graph not diameter ≤ 2")
	}
	for seed := uint64(0); seed < 5; seed++ {
		r := NewRestartMIS(g, 3, 7, seed)
		rounds, ok := r.RunUntilValid(50000)
		if !ok {
			t.Fatalf("seed %d: no valid MIS within %d rounds", seed, rounds)
		}
	}
}

func TestRestartMISRecoversFromCorruptDecidedFlags(t *testing.T) {
	// The within-phase computation alone is NOT self-stabilizing: force an
	// all-out state (nothing claimed, everything decided) and check the
	// restart mechanism recovers where the phase-less computation cannot.
	g := graph.Complete(30)
	r := NewRestartMIS(g, 3, 7, 7)
	for u := 0; u < g.N(); u++ {
		r.state[u] = phaseOut // corrupted: no MIS vertex, all inert
	}
	if r.Valid() {
		t.Fatal("corrupted all-out configuration must not be a valid MIS")
	}
	rounds, ok := r.RunUntilValid(20000)
	if !ok {
		t.Fatalf("restart did not absorb corrupted decided flags in %d rounds", rounds)
	}
}

func TestRestartMISStatesWellFormed(t *testing.T) {
	g := graph.Gnp(50, 0.1, xrand.New(2))
	r := NewRestartMIS(g, 3, 4, 3)
	for i := 0; i < 2000; i++ {
		r.Step()
		for u := 0; u < g.N(); u++ {
			switch r.state[u] {
			case phaseUndecided, phaseInMIS, phaseOut:
			default:
				t.Fatalf("round %d: vertex %d in invalid state %d", i, u, r.state[u])
			}
		}
	}
	if r.round != 2000 {
		t.Fatal("round counter wrong")
	}
}

func TestRestartMISIndependenceWithinPhase(t *testing.T) {
	// Two adjacent vertices must never both claim MIS membership when both
	// joined under the same clean computation. With adversarial initial
	// states adjacent claims can exist transiently, but after the first
	// valid round, claims observed simultaneously must be independent.
	g := graph.Cycle(21)
	r := NewRestartMIS(g, 3, 4, 9)
	if _, ok := r.RunUntilValid(50000); !ok {
		t.Skip("no valid configuration reached; nothing to check")
	}
	// At the valid round, independence holds by definition of Valid.
	for u := 0; u < g.N(); u++ {
		if !r.InMIS(u) {
			continue
		}
		for _, v := range g.Neighbors(u) {
			if r.InMIS(int(v)) {
				t.Fatalf("adjacent MIS claims %d-%d in valid configuration", u, v)
			}
		}
	}
}
