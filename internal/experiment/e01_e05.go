package experiment

// Experiments E1–E5: the "simple bounds" of the paper's Section 3 — complete
// graphs (Theorem 8), disjoint cliques (Remark 9), the 3-state process on
// cliques (Remark 10), bounded arboricity (Theorem 11), and the maximum-
// degree bound (Theorem 12).

import (
	"fmt"
	"math"

	"ssmis/internal/graph"
	"ssmis/internal/stats"
	"ssmis/internal/xrand"
)

// e01Spec is E1's declaration on the shared scaling-sweep shape; the golden
// tests in internal/scenario pin examples/scenarios/e1.json against it.
func e01Spec() ScalingSpec {
	return ScalingSpec{
		Title: "E1a: stabilization time of 2-state on K_n",
		Kind:  KindTwoState,
		Family: GraphFamily{
			Name:  "complete",
			Build: func(n int, _ uint64) *graph.Graph { return graph.Complete(n) },
			Det:   true,
		},
		Sizes:       []int{256, 512, 1024, 2048, 4096, 8192},
		TrialsBase:  200,
		ClaimNotes:  []string{"claim shape: mean/ln n ≈ constant; max/ln² n bounded"},
		PolylogNote: true,
		MaxFitNote:  "max-over-trials grows like ln^%.2f(n) (claim: up to 2 for the w.h.p. bound)",
		Tail: &TailSpec{
			Title: "E1b: geometric tail P[T ≥ k·log2 n] on the largest clique",
			KMax:  6,
		},
	}
}

func e01CliqueTwoState() Experiment {
	return Experiment{
		ID:    "E1",
		Title: "2-state MIS on complete graphs K_n",
		Claim: "Theorem 8: O(log n) expected, Θ(log² n) w.h.p.; P[T ≥ k·log n] = 2^{-Θ(k)}",
		Run: func(cfg Config) []Table {
			return RunScalingSweep(cfg, e01Spec())
		},
	}
}

func e02DisjointCliques() Experiment {
	return Experiment{
		ID:    "E2",
		Title: "2-state MIS on √n disjoint cliques K_{√n}",
		Claim: "Remark 9: Θ(log² n) expected and w.h.p.",
		Run: func(cfg Config) []Table {
			cfg = cfg.normalized()
			roots := cfg.sizes([]int{16, 24, 32, 48, 64, 96})
			trials := cfg.trials(100)
			t := Table{Title: "E2: 2-state on disjoint cliques (n = s² vertices, s cliques of size s)", Columns: ScalingColumns()}
			var ns []int
			var means []float64
			for _, s := range roots {
				n := s * s
				g := graph.DisjointCliques(s, s)
				m := RunTrials(cfg, KindTwoState, FixedGraph(g), trials, 0, cfg.Seed+uint64(n))
				ScalingRow(&t, n, m)
				if m.Count() > 0 {
					ns = append(ns, n)
					means = append(means, m.Summary().Mean)
				}
			}
			t.Notes = append(t.Notes,
				"claim shape: MEAN/ln² n ≈ constant (the slowest of √n cliques dominates)",
				PolylogNote(ns, means))
			return []Table{t}
		},
	}
}

func e03CliqueThreeState() Experiment {
	return Experiment{
		ID:    "E3",
		Title: "3-state vs 2-state MIS on complete graphs",
		Claim: "Remark 10: the 3-state process is O(log n) on K_n both in expectation AND w.h.p. (2-state needs Θ(log² n) w.h.p.)",
		Run: func(cfg Config) []Table {
			cfg = cfg.normalized()
			sizes := cfg.sizes([]int{256, 512, 1024, 2048, 4096, 8192})
			trials := cfg.trials(200)
			t := Table{
				Title: "E3: K_n head-to-head (same trial budget)",
				Columns: []string{"n", "2st mean", "2st max", "3st mean", "3st max",
					"2st max/ln² n", "3st max/ln n"},
			}
			var ns []int
			var max2, max3 []float64
			for _, n := range sizes {
				g := graph.Complete(n)
				m2 := RunTrials(cfg, KindTwoState, FixedGraph(g), trials, 0, cfg.Seed+uint64(n))
				m3 := RunTrials(cfg, KindThreeState, FixedGraph(g), trials, 0, cfg.Seed+uint64(n)+1)
				if m2.Count() == 0 || m3.Count() == 0 {
					continue
				}
				s2, s3 := m2.Summary(), m3.Summary()
				ln := math.Log(float64(n))
				t.AddRow(n, s2.Mean, s2.Max, s3.Mean, s3.Max, s2.Max/(ln*ln), s3.Max/ln)
				ns = append(ns, n)
				max2 = append(max2, s2.Max)
				max3 = append(max3, s3.Max)
			}
			if len(ns) >= 2 {
				fn := make([]float64, len(ns))
				for i, n := range ns {
					fn[i] = float64(n)
				}
				_, k2, _ := stats.PolylogFit(fn, max2)
				_, k3, _ := stats.PolylogFit(fn, max3)
				t.Notes = append(t.Notes, fmt.Sprintf(
					"claim shape: 2-state max tail needs an extra log factor over 3-state; fitted max exponents: 2-state ln^%.2f, 3-state ln^%.2f",
					k2, k3))
			}
			return []Table{t}
		},
	}
}

func e04BoundedArboricity() Experiment {
	return Experiment{
		ID:    "E4",
		Title: "2-state MIS on bounded-arboricity graphs",
		Claim: "Theorem 11: O(log n) w.h.p. on graphs of bounded arboricity (trees, grids, bounded-degeneracy graphs)",
		Run: func(cfg Config) []Table {
			var tables []Table
			for _, spec := range e04Specs() {
				tables = append(tables, RunScalingSweep(cfg, spec)...)
			}
			return tables
		},
	}
}

// e04Families lists E4's bounded-arboricity graph families. Deterministic
// families ignore their seed: their cells submit as fixed shards, so the
// batch scheduler builds the graph once instead of once per trial.
func e04Families() []GraphFamily {
	return []GraphFamily{
		{Name: "random-tree", Build: func(n int, seed uint64) *graph.Graph {
			return graph.RandomTree(n, xrand.New(seed))
		}},
		{Name: "prufer-tree", Build: func(n int, seed uint64) *graph.Graph {
			return graph.UniformLabeledTree(n, xrand.New(seed))
		}},
		{Name: "path", Build: func(n int, _ uint64) *graph.Graph { return graph.Path(n) }, Det: true},
		{Name: "grid", Build: func(n int, _ uint64) *graph.Graph {
			s := int(math.Sqrt(float64(n)))
			return graph.Grid(s, s)
		}, Det: true},
		{Name: "degen-3", Build: func(n int, seed uint64) *graph.Graph {
			return graph.BoundedDegeneracyRandom(n, 3, xrand.New(seed))
		}},
		{Name: "caterpillar", Build: func(n int, _ uint64) *graph.Graph {
			return graph.Caterpillar(n/9, 8)
		}, Det: true},
	}
}

// e04Specs is E4's declaration — one scaling sweep per family; the golden
// tests in internal/scenario pin examples/scenarios/e4.json against it.
func e04Specs() []ScalingSpec {
	var specs []ScalingSpec
	for _, fam := range e04Families() {
		specs = append(specs, ScalingSpec{
			Title:       "E4: 2-state on " + fam.Name,
			Kind:        KindTwoState,
			Family:      fam,
			Sizes:       []int{1024, 4096, 16384, 65536},
			TrialsBase:  60,
			ClaimNotes:  []string{"claim shape: mean/ln n ≈ constant"},
			PolylogNote: true,
		})
	}
	return specs
}

func e05MaxDegree() Experiment {
	return Experiment{
		ID:    "E5",
		Title: "2-state MIS vs maximum degree Δ",
		Claim: "Theorem 12: at most O(Δ·log n) w.h.p. on any graph of maximum degree Δ",
		Run: func(cfg Config) []Table {
			cfg = cfg.normalized()
			const n = 2048
			degrees := cfg.sizes([]int{4, 8, 16, 32, 64, 128})
			trials := cfg.trials(60)
			t := Table{
				Title:   fmt.Sprintf("E5: d-regular random graphs, n = %d", n),
				Columns: []string{"Δ", "mean", "±95%", "max", "max/(Δ·ln n)", "status"},
			}
			ln := math.Log(n)
			worstRatio := 0.0
			for _, d := range degrees {
				gen := func(seed uint64) *graph.Graph {
					return graph.RandomRegular(n, d, xrand.New(seed))
				}
				m := RunTrials(cfg, KindTwoState, PerSeed(gen), trials, 0, cfg.Seed+uint64(d))
				if m.Count() == 0 {
					t.AddRow(d, "-", "-", "-", "-", fmt.Sprintf("%d/%d FAILED", m.failures, m.trials))
					continue
				}
				s := m.Summary()
				ratio := s.Max / (float64(d) * ln)
				if ratio > worstRatio {
					worstRatio = ratio
				}
				status := "ok"
				if m.failures > 0 {
					status = fmt.Sprintf("%d capped", m.failures)
				}
				t.AddRow(d, s.Mean, s.MeanCI95(), s.Max, ratio, status)
			}
			t.Notes = append(t.Notes,
				fmt.Sprintf("claim shape: max/(Δ·ln n) bounded by a constant across Δ; worst observed %.3f (bound holds when ≤ O(1))", worstRatio),
				"the bound is an upper bound; on regular random graphs stabilization is typically far faster than Δ·ln n")
			return []Table{t}
		},
	}
}
