package stoneage

// Cross-engine equivalence sweep: the shared frontier engine behind
// internal/mis must stay coin-for-coin identical to the node-program
// stone-age runtime across graph families and many seeds. The lockstep
// comparisons in stoneage_test.go cover G(n,p) narrowly; this sweep runs
// ≥20 seeds over Gnp, ChungLu, Grid and DisjointCliques for both stone-age
// protocols.

import (
	"testing"

	"ssmis/internal/graph"
	"ssmis/internal/mis"
	"ssmis/internal/xrand"
)

// equivalenceGraphs builds the four-family graph ladder for one seed.
func equivalenceGraphs(seed uint64) map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"gnp":     graph.Gnp(48, 0.08, xrand.New(seed)),
		"chunglu": graph.ChungLu(48, 2.5, 5, xrand.New(seed+1)),
		"grid":    graph.Grid(7, 7),
		"cliques": graph.DisjointCliques(6, 6),
	}
}

const equivalenceSeeds = 20

func TestThreeStateEquivalenceSweep(t *testing.T) {
	for seed := uint64(1); seed <= equivalenceSeeds; seed++ {
		for family, g := range equivalenceGraphs(seed) {
			sim := mis.NewThreeState(g, mis.WithSeed(seed))
			sa := NewThreeStateMIS(g, seed, nil)
			for r := 0; r < 2000 && !sim.Stabilized(); r++ {
				sim.Step()
				sa.engine.Step()
			}
			if !sim.Stabilized() || !sa.Stabilized() {
				t.Fatalf("%s seed %d: stabilization mismatch (sim=%v sa=%v)",
					family, seed, sim.Stabilized(), sa.Stabilized())
			}
			for u := 0; u < g.N(); u++ {
				if sim.State(u) != sa.State(u) {
					t.Fatalf("%s seed %d: final states diverge at %d", family, seed, u)
				}
			}
		}
	}
}

func TestThreeColorEquivalenceSweep(t *testing.T) {
	for seed := uint64(1); seed <= equivalenceSeeds; seed++ {
		for family, g := range equivalenceGraphs(seed) {
			sim := mis.NewThreeColor(g, mis.WithSeed(seed))
			sa := NewThreeColorMIS(g, seed, nil, nil)
			for r := 0; r < 4000 && !sim.Stabilized(); r++ {
				sim.Step()
				sa.engine.Step()
			}
			if !sim.Stabilized() || !sa.Stabilized() {
				t.Fatalf("%s seed %d: stabilization mismatch (sim=%v sa=%v)",
					family, seed, sim.Stabilized(), sa.Stabilized())
			}
			for u := 0; u < g.N(); u++ {
				if sim.ColorOf(u) != sa.ColorOf(u) || sim.SwitchLevel(u) != sa.Level(u) {
					t.Fatalf("%s seed %d: final state diverges at %d", family, seed, u)
				}
			}
		}
	}
}
