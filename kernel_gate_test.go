package ssmis_test

// Kernel speed record and gates. The per-rule rows record the absolute time
// to stabilization of the bit-sliced engine — 2-state and 3-state on the
// BenchmarkEngineKernelGnp1M workload, 3-color on the n=10^5 instance (its
// phase clock drives ~1200 rounds per run, so n=10^6 costs minutes) — for
// comparison against the committed BENCH_kernel.json. The gated pairs each
// run coin-for-coin identical executions two ways (same seeds, same rounds,
// same terminal MIS), so the wall-clock ratio is a pure comparison of the
// two configurations — a benchstat-style before/after with the noise of
// differing work removed by construction: the auto-resolved counter plane
// against flat int32 counters on two graphs. Shared-runner noise is purely
// additive (scheduler steal inflates a run, never deflates it), so each
// (configuration, seed) records the minimum of a few repetitions, with the
// two configurations interleaved per seed in alternating order so drift
// cancels. The
// measurement JSON lands in the file named by BENCH_KERNEL_OUT (skipped
// when unset, so ordinary `go test ./...` never pays the n=10^6 runs).
//
// Regenerate with:
//
//	BENCH_KERNEL_OUT=$PWD/BENCH_kernel.json go test -run TestKernelSpeedupGate .

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"ssmis"
	"ssmis/internal/engine"
	"ssmis/internal/mis"
)

func TestKernelSpeedupGate(t *testing.T) {
	outPath := os.Getenv("BENCH_KERNEL_OUT")
	if outPath == "" {
		t.Skip("BENCH_KERNEL_OUT not set")
	}
	g1m := ssmis.GnpAvgDegree(1000000, 10, 7)
	g100k := ssmis.GnpAvgDegree(100000, 10, 7)
	const seeds = 5

	rules := []struct {
		name string
		slug string
		g    *ssmis.Graph
		mk   func(g *ssmis.Graph, opts ...ssmis.Option) ssmis.Process
		reps int // min-of-reps per seed
	}{
		{"2-state", "frontier_gnp1m", g1m,
			func(g *ssmis.Graph, opts ...ssmis.Option) ssmis.Process { return ssmis.NewTwoState(g, opts...) }, 3},
		{"3-state", "3state_gnp1m", g1m,
			func(g *ssmis.Graph, opts ...ssmis.Option) ssmis.Process { return ssmis.NewThreeState(g, opts...) }, 2},
		// The 3-color row runs at n = 10^5: its round count is driven by the
		// O(log^2 n)-period phase clock (≈1200 rounds at this size), so the
		// n = 10^6 instance costs minutes per run — far past the CI budget.
		{"3-color", "3color_gnp100k", g100k,
			func(g *ssmis.Graph, opts ...ssmis.Option) ssmis.Process { return ssmis.NewThreeColor(g, opts...) }, 2},
	}

	type row struct {
		Name     string `json:"name"`
		NsPerRun int64  `json:"ns_per_run"`
	}
	var rows []row
	speedups := map[string]float64{}
	gates := map[string]float64{}
	roundsTotal := map[string]int{}

	for _, rule := range rules {
		// Total time over a fixed seed set, each seed the minimum of
		// rule.reps repetitions — scheduler steal only ever inflates a run,
		// so the min approaches the true time.
		var total time.Duration
		rounds := 0
		// Warm-up on a smaller instance (page-in, branch predictors).
		ssmis.Run(rule.mk(g100k), 0)
		for seed := uint64(0); seed < seeds; seed++ {
			best := time.Duration(1 << 62)
			for rep := 0; rep < rule.reps; rep++ {
				start := time.Now()
				res := ssmis.Run(rule.mk(rule.g, ssmis.WithSeed(seed)), 0)
				d := time.Since(start)
				if !res.Stabilized {
					t.Fatalf("%s seed %d did not stabilize", rule.name, seed)
				}
				if rep == 0 {
					rounds += res.Rounds
				}
				best = min(best, d)
			}
			total += best
		}
		rows = append(rows, row{Name: "kernel_" + rule.slug, NsPerRun: total.Nanoseconds() / seeds})
		roundsTotal[rule.name] = rounds
		t.Logf("%s: %v per run", rule.name, total/seeds)
	}

	// Counter-plane row pairs: the flat full-width int32 counter arrays
	// against the auto-resolved plane on the same execution — identical
	// seeds, rounds, and coins, so the ratio isolates counter storage.
	// On Chung-Lu(n=10^6, beta=2.5, avg degree 10) the generator's
	// weight-sorted ids put the hubs first, so the plane resolves to the
	// hub/tail split (cache-resident hub rows, byte-wide tail); gated at
	// 1.1x, the tentpole claim of the counter architecture. On G(n=10^6,
	// avg degree 10) — no hubs at all — the plane resolves to plain byte
	// lanes, whose win is the 4x shrink of the commit's scatter traffic;
	// gated at 1.0x (the narrow plane must never lose to flat). Against the
	// shared runner's noise each pair runs under shared run contexts with a
	// warm-up run excluded, and takes the minimum of 3 repetitions per
	// (path, seed) — scheduler steal only ever inflates a run — with the two
	// paths interleaved in alternating order so drift hits both alike.
	{
		const cSeeds = 5
		const cReps = 3
		pairs := []struct {
			key      string
			g        *ssmis.Graph
			slugFlat string
			slugAuto string
			gate     float64
			layout   engine.CounterLayout // expected auto resolution
		}{
			{"counters-split", ssmis.ChungLu(1000000, 2.5, 10, 7), "kernel_flat_chunglu1m", "kernel_split_chunglu1m",
				1.1, engine.LayoutSplit},
			{"counters-narrow", g1m, "kernel_flat_gnp1m", "kernel_narrow_gnp1m",
				1.0, engine.LayoutNarrow},
		}
		for _, pc := range pairs {
			layouts := [2]engine.CounterLayout{engine.LayoutFlat, engine.LayoutAuto}
			ctxs := [2]*engine.RunContext{engine.NewRunContext(), engine.NewRunContext()}
			var totals [2]time.Duration
			var rounds [2]int
			one := func(i int, seed uint64, countRounds bool) time.Duration {
				p := ssmis.NewTwoState(pc.g, ssmis.WithSeed(seed),
					mis.WithCounterLayout(layouts[i]), mis.WithRunContext(ctxs[i]))
				if info := p.CounterPlane(); i == 1 && (info.Layout != pc.layout || info.WidthBits != 8) {
					t.Fatalf("%s: auto plane resolved %+v, want %v with byte tail", pc.key, info, pc.layout)
				}
				start := time.Now()
				res := ssmis.Run(p, 0)
				d := time.Since(start)
				if !res.Stabilized {
					t.Fatalf("%s seed %d did not stabilize", pc.key, seed)
				}
				if countRounds {
					rounds[i] += res.Rounds
				}
				return d
			}
			one(0, 99, false) // warm-up: pages the graph in
			one(1, 99, false)
			for seed := uint64(0); seed < cSeeds; seed++ {
				mins := [2]time.Duration{1 << 62, 1 << 62}
				for rep := 0; rep < cReps; rep++ {
					for _, i := range [2]int{int(seed) % 2, 1 - int(seed)%2} {
						if d := one(i, seed, rep == 0); d < mins[i] {
							mins[i] = d
						}
					}
				}
				totals[0] += mins[0]
				totals[1] += mins[1]
			}
			if rounds[0] != rounds[1] {
				t.Fatalf("%s layouts diverged: flat %d rounds, auto %d rounds",
					pc.key, rounds[0], rounds[1])
			}
			speedup := float64(totals[0].Nanoseconds()) / float64(totals[1].Nanoseconds())
			rows = append(rows,
				row{Name: pc.slugFlat, NsPerRun: totals[0].Nanoseconds() / cSeeds},
				row{Name: pc.slugAuto, NsPerRun: totals[1].Nanoseconds() / cSeeds})
			speedups[pc.key] = speedup
			gates[pc.key] = pc.gate
			roundsTotal[pc.key] = rounds[1]
			t.Logf("%s: flat %v, auto %v, speedup %.2fx", pc.key, totals[0], totals[1], speedup)
		}
	}

	report := map[string]any{
		"description": "Bit-sliced engine speed record (full time-to-stabilization including process construction). The kernel_frontier_gnp1m, kernel_3state_gnp1m and kernel_3color_gnp100k rows are absolute: ns_per_run averages over seeds 0-4 the minimum of k repetitions per seed — k = 3 (2-state), 2 (3-state), 2 (3-color) — because shared-runner noise is additive and the min approaches the true time. 2-state and 3-state run G(n=10^6, avg degree 10); 3-color runs G(n=10^5, avg degree 10) because its phase clock drives ~1200 rounds per run. The gated row pairs replay identical executions two ways, so each ratio isolates one configuration choice. The counters-split pair runs the 2-state engine on Chung-Lu(n=10^6, beta=2.5, avg degree 10) in the generator's own ids, whose weight-sorted order puts the hubs first, with the counter plane forced flat vs auto-resolved (hub/tail split: dense int32 hub rows, byte-wide tail lanes); gated at >= 1.1x. The counters-narrow pair runs the 2-state engine on the G(n=10^6, avg degree 10) instance, flat vs auto-resolved byte lanes (no hub prefix); gated at >= 1.0x (narrow must never lose). All pairs: min of 3 interleaved repetitions per (configuration, seed), shared run contexts, warm-up excluded. Regenerate with: BENCH_KERNEL_OUT=$PWD/BENCH_kernel.json go test -run TestKernelSpeedupGate .",
		"environment": map[string]any{
			"goos":         runtime.GOOS,
			"goarch":       runtime.GOARCH,
			"logical_cpus": runtime.NumCPU(),
			"gomaxprocs":   runtime.GOMAXPROCS(0),
			"go":           runtime.Version(),
		},
		"results":      rows,
		"rounds_total": roundsTotal,
		"speedups":     speedups,
		"gates":        gates,
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, gate := range gates {
		if speedups[name] < gate {
			t.Errorf("%s speedup %.2fx below the %.1fx gate on this runner",
				name, speedups[name], gate)
		}
	}
}
