package beeping

// Cross-engine equivalence sweep: the shared frontier engine behind
// internal/mis must stay coin-for-coin identical to the node-program
// beeping runtime across graph families and many seeds. The lockstep
// comparison in beeping_test.go covers G(n,p) narrowly; this sweep runs
// ≥20 seeds over Gnp, ChungLu, Grid and DisjointCliques, comparing every
// round's colors and the total bit accounting.

import (
	"testing"

	"ssmis/internal/graph"
	"ssmis/internal/mis"
	"ssmis/internal/xrand"
)

const equivalenceSeeds = 20

func TestBeepingEquivalenceSweep(t *testing.T) {
	graphs := func(seed uint64) map[string]*graph.Graph {
		return map[string]*graph.Graph{
			"gnp":     graph.Gnp(48, 0.08, xrand.New(seed)),
			"chunglu": graph.ChungLu(48, 2.5, 5, xrand.New(seed+1)),
			"grid":    graph.Grid(7, 7),
			"cliques": graph.DisjointCliques(6, 6),
		}
	}
	for seed := uint64(1); seed <= equivalenceSeeds; seed++ {
		for family, g := range graphs(seed) {
			sim := mis.NewTwoState(g, mis.WithSeed(seed))
			bee := NewMIS(g, seed, nil)
			for r := 0; r < 5000 && !sim.Stabilized(); r++ {
				sim.Step()
				bee.engine.Step()
				for u := 0; u < g.N(); u++ {
					if sim.Black(u) != bee.Black(u) {
						t.Fatalf("%s seed %d round %d: colors diverge at %d", family, seed, r+1, u)
					}
				}
			}
			if !sim.Stabilized() || !bee.Stabilized() {
				t.Fatalf("%s seed %d: stabilization mismatch (sim=%v bee=%v)",
					family, seed, sim.Stabilized(), bee.Stabilized())
			}
			if sim.RandomBits() != bee.RandomBits() {
				t.Fatalf("%s seed %d: bit accounting diverges: %d vs %d",
					family, seed, sim.RandomBits(), bee.RandomBits())
			}
		}
	}
}
