package async_test

// Cross-runtime equivalence matrix: for each process, the array simulator
// (internal/mis), the synchronous lockstep runtime (internal/noderun
// over the shared program sets), and the asynchronous
// medium at ρ = 1 must produce IDENTICAL executions round-for-round — same
// per-vertex states every round, same stabilization round, same random-bit
// totals — across 20 seeds × 4 graph families. Any divergence is a
// model-translation bug in one of the engines, not noise.

import (
	"fmt"
	"testing"

	"ssmis/internal/async"
	"ssmis/internal/beeping"
	"ssmis/internal/graph"
	"ssmis/internal/mis"
	"ssmis/internal/noderun"
	"ssmis/internal/stoneage"
	"ssmis/internal/verify"
	"ssmis/internal/xrand"
)

const matrixSeeds = 20

// matrixFamilies are the graph families of the sweep; random families
// resample per seed, deterministic families are fixed.
func matrixFamilies(seed uint64) []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", graph.Gnp(48, 0.08, xrand.New(seed))},
		{"chunglu", graph.ChungLu(48, 2.5, 5, xrand.New(seed+1))},
		{"grid", graph.Grid(7, 7)},
		{"cliques", graph.DisjointCliques(6, 6)},
	}
}

func TestCrossRuntimeEquivalenceMatrix(t *testing.T) {
	type runtimes struct {
		step  func() // advance every engine one round
		same  func() error
		bits  func() (sim, sync, async int64)
		simOK func() bool
	}
	cases := []struct {
		process string
		build   func(g *graph.Graph, seed uint64) runtimes
	}{
		{"2-state", func(g *graph.Graph, seed uint64) runtimes {
			sim := mis.NewTwoState(g, mis.WithSeed(seed))
			ps := beeping.NewPrograms(g.N(), seed, nil)
			sync := noderun.NewEngine(g, ps.Model(), ps.Programs())
			am := async.NewMIS(g, seed, async.NewBounded(1), nil)
			return runtimes{
				step: func() { sim.Step(); sync.Step(); am.Engine().StepRound() },
				same: func() error {
					for u := 0; u < g.N(); u++ {
						if sim.Black(u) != ps.Black(u) || sim.Black(u) != am.Black(u) {
							return fmt.Errorf("vertex %d: sim=%v sync=%v async=%v",
								u, sim.Black(u), ps.Black(u), am.Black(u))
						}
					}
					return nil
				},
				bits:  func() (int64, int64, int64) { return sim.RandomBits(), ps.RandomBits(), am.RandomBits() },
				simOK: sim.Stabilized,
			}
		}},
		{"3-state", func(g *graph.Graph, seed uint64) runtimes {
			sim := mis.NewThreeState(g, mis.WithSeed(seed))
			ps := stoneage.NewThreeStatePrograms(g.N(), seed, nil)
			sync := noderun.NewEngine(g, ps.Model(), ps.Programs())
			am := async.NewThreeStateMIS(g, seed, async.NewBounded(1), nil)
			return runtimes{
				step: func() { sim.Step(); sync.Step(); am.Engine().StepRound() },
				same: func() error {
					for u := 0; u < g.N(); u++ {
						if sim.State(u) != ps.State(u) || sim.State(u) != am.State(u) {
							return fmt.Errorf("vertex %d: sim=%v sync=%v async=%v",
								u, sim.State(u), ps.State(u), am.State(u))
						}
					}
					return nil
				},
				bits:  func() (int64, int64, int64) { return sim.RandomBits(), ps.RandomBits(), am.RandomBits() },
				simOK: sim.Stabilized,
			}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.process, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= matrixSeeds; seed++ {
				for _, fam := range matrixFamilies(seed) {
					rt := tc.build(fam.g, seed)
					rounds := 0
					for ; rounds < 5000 && !rt.simOK(); rounds++ {
						rt.step()
						if err := rt.same(); err != nil {
							t.Fatalf("%s seed %d round %d: %v", fam.name, seed, rounds+1, err)
						}
					}
					if !rt.simOK() {
						t.Fatalf("%s seed %d: simulator did not stabilize in %d rounds", fam.name, seed, rounds)
					}
					simBits, syncBits, asyncBits := rt.bits()
					if simBits != syncBits || simBits != asyncBits {
						t.Fatalf("%s seed %d: bit accounting diverges: sim=%d sync=%d async=%d",
							fam.name, seed, simBits, syncBits, asyncBits)
					}
				}
			}
		})
	}
}

// The stabilization ROUND must also agree between the synchronous runtime's
// Run loop and the async medium's Run loop at ρ = 1 (both check the
// observer between rounds), including the bit totals the run accumulated.
func TestRunLoopEquivalenceAtRhoOne(t *testing.T) {
	for seed := uint64(1); seed <= matrixSeeds; seed++ {
		for _, fam := range matrixFamilies(seed) {
			bee := beeping.NewMIS(fam.g, seed, nil)
			am := async.NewMIS(fam.g, seed, async.NewBounded(1), nil)
			br, bok := bee.Run(5000)
			ar, aok := am.Run(5000)
			if br != ar || bok != aok {
				t.Fatalf("%s seed %d: sync run (%d, %v) vs async run (%d, %v)",
					fam.name, seed, br, bok, ar, aok)
			}
			if bok {
				if err := verify.MIS(fam.g, am.Black); err != nil {
					t.Fatalf("%s seed %d: %v", fam.name, seed, err)
				}
			}
		}
	}
}
