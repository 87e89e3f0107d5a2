package experiment

// Experiment E19: the processes on the asynchronous beeping medium, swept
// over the clock-drift bound ρ. The paper's headline weak-communication
// claim is stated for lockstep beeping rounds; this experiment relaxes the
// lockstep: each node owns a clock advanced by a drift model, beeps occupy
// real slot intervals, and hearing is interval overlap (internal/async). At
// ρ=1 the medium provably collapses to the synchronous runtime — the
// "≡sync" column replays every trial on the lockstep node-program runtime
// and counts matches, which must be trials/trials — and for ρ>1 the table
// records how stabilization time (in virtual rounds: the slowest clock's
// slots) and clock skew grow with the allowed drift, per graph family.

import (
	"fmt"
	"math"

	"ssmis/internal/async"
	"ssmis/internal/beeping"
	"ssmis/internal/engine"
	"ssmis/internal/graph"
	"ssmis/internal/mis"
	"ssmis/internal/stats"
	"ssmis/internal/stoneage"
	"ssmis/internal/verify"
	"ssmis/internal/xrand"
)

func e19AsyncDrift() Experiment {
	return Experiment{
		ID:    "E19",
		Title: "Asynchronous beeping: stabilization vs clock drift ρ",
		Claim: "§1/§2: the processes need only weak communication; the asynchronous medium (per-node clocks within drift bound ρ, interval-overlap hearing) tests that beyond lockstep rounds. At ρ=1 the async execution IS the synchronous one, coin-for-coin",
		Run: func(cfg Config) []Table {
			cfg = cfg.normalized()
			trials := cfg.trials(12)
			n := int(192 * math.Min(cfg.Scale*2, 1))
			if n < 64 {
				n = 64
			}
			side := graph.ISqrt(n)
			families := []struct {
				name string
				gen  GraphGen
			}{
				{"gnp-avg8", PerSeed(func(seed uint64) *graph.Graph {
					return graph.GnpAvgDegree(n, 8, xrand.New(seed))
				})},
				{"tree", PerSeed(func(seed uint64) *graph.Graph {
					return graph.RandomTree(n, xrand.New(seed))
				})},
				{"grid", FixedGraph(graph.Grid(side, side))},
				{"cliques", FixedGraph(graph.DisjointCliques(side, side))},
			}
			rhos := []float64{1, 1.5, 2, 3}
			t := Table{
				Title: fmt.Sprintf("E19: async stabilization vs drift ρ (bounded drift, n=%d, %d trials)", n, trials),
				Columns: []string{"process", "family", "ρ", "rounds mean", "rounds max",
					"skew max", "≡sync", "stabilized"},
			}
			type asyncOutcome struct {
				rounds, skew float64
				ok           bool
				syncSame     bool
			}
			for _, kind := range []Kind{KindTwoState, KindThreeState} {
				for _, fam := range families {
					for _, rho := range rhos {
						rounds, skew := stats.NewStream(), stats.NewStream()
						failed, syncSame := 0, 0
						checkSync := rho == 1
						RunJobs(cfg, fmt.Sprintf("E19 %v/%s ρ=%g", kind, fam.name, rho), trials, cfg.Seed+19,
							func(_ *engine.RunContext, _ int, seed uint64) any {
								g := fam.gen.At(seed)
								limit := 8 * mis.DefaultRoundCap(g.N())
								drift := async.NewBounded(rho)
								var (
									r     int
									ok    bool
									black func(int) bool
									eng   *async.Engine
								)
								if kind == KindTwoState {
									m := async.NewMIS(g, seed, drift, nil)
									r, ok = m.Run(limit)
									black, eng = m.Black, m.Engine()
								} else {
									m := async.NewThreeStateMIS(g, seed, drift, nil)
									r, ok = m.Run(limit)
									black, eng = m.Black, m.Engine()
								}
								if !ok || verify.MIS(g, black) != nil {
									return asyncOutcome{}
								}
								o := asyncOutcome{rounds: float64(r), skew: float64(eng.MaxSkew()), ok: true}
								if checkSync {
									// Replay on the synchronous node-program runtime:
									// at ρ=1 the async run must match it exactly.
									var sr int
									var sok bool
									if kind == KindTwoState {
										s := beeping.NewMIS(g, seed, nil)
										sr, sok = s.Run(limit)
										o.syncSame = sok == ok && sr == r && sameBlack(g.N(), s.Black, black)
									} else {
										s := stoneage.NewThreeStateMIS(g, seed, nil)
										sr, sok = s.Run(limit)
										o.syncSame = sok == ok && sr == r && sameBlack(g.N(), s.Black, black)
									}
								}
								return o
							},
							func(_ int, payload any) {
								o := payload.(asyncOutcome)
								if !o.ok {
									failed++
									return
								}
								rounds.Add(o.rounds)
								skew.Add(o.skew)
								if o.syncSame {
									syncSame++
								}
							})
						syncCol := "-"
						if checkSync {
							syncCol = fmt.Sprintf("%d/%d", syncSame, trials)
						}
						if rounds.N() == 0 {
							t.AddRow(kind.String(), fam.name, rho, "-", "-", "-", syncCol,
								fmt.Sprintf("0/%d FAILED", trials))
							continue
						}
						status := "ok"
						if failed > 0 {
							status = fmt.Sprintf("%d/%d failed", failed, trials)
						}
						t.AddRow(kind.String(), fam.name, rho, rounds.Mean(), rounds.Max(),
							skew.Max(), syncCol, status)
					}
				}
			}
			t.Notes = append(t.Notes,
				"'≡sync' must read trials/trials on every ρ=1 row: the async medium at ρ=1 is the synchronous runtime coin-for-coin (any mismatch is a medium bug)",
				"rounds are virtual rounds — the slowest clock's completed slots — so columns are comparable to synchronous rounds across ρ",
				"skew is the max slot-index spread between the fastest and slowest clock; it grows with virtual time under sustained drift, yet stabilization stays polylog",
			)
			return []Table{t}
		},
	}
}

// sameBlack reports whether two color projections agree on all n vertices.
func sameBlack(n int, a, b func(int) bool) bool {
	for u := 0; u < n; u++ {
		if a(u) != b(u) {
			return false
		}
	}
	return true
}
