package engine_test

// Kernel speed record and gates. The per-rule rows record the absolute time
// to stabilization of the bit-sliced engine — 2-state and 3-state on the
// BenchmarkEngineKernelGnp1M workload, 3-color on the n=10^5 instance (its
// phase clock drives ~1200 rounds per run, so n=10^6 costs minutes) — for
// comparison against the committed BENCH_kernel.json. The gated pairs each
// run coin-for-coin identical executions two ways (same seeds, same rounds,
// same terminal MIS), so the wall-clock ratio is a pure comparison of the
// two configurations — a benchstat-style before/after with the noise of
// differing work removed by construction: the default counter lanes
// against int32 counters forced by ForceFlatCounters, on two graphs.
// Shared-runner noise is purely additive (scheduler steal inflates a run,
// never deflates it), so each (configuration, seed) records the minimum of
// a few repetitions, with the two configurations interleaved per seed in
// alternating order so drift cancels. The measurement JSON lands in the
// file named by BENCH_KERNEL_OUT (skipped when unset, so ordinary
// `go test ./...` never pays the n=10^6 runs).
//
// Regenerate from the repository root with:
//
//	BENCH_KERNEL_OUT=$PWD/BENCH_kernel.json go test -run TestKernelSpeedupGate ./internal/engine

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"ssmis/internal/engine"
	"ssmis/internal/graph"
	"ssmis/internal/mis"
	"ssmis/internal/xrand"
)

// run steps p to stabilization under the default cap of the ssmis facade's
// Run.
func run(p mis.Process) mis.Result { return mis.Run(p, 8*mis.DefaultRoundCap(p.N())) }

func TestKernelSpeedupGate(t *testing.T) {
	outPath := os.Getenv("BENCH_KERNEL_OUT")
	if outPath == "" {
		t.Skip("BENCH_KERNEL_OUT not set")
	}
	g1m := graph.GnpAvgDegree(1000000, 10, xrand.New(7))
	g100k := graph.GnpAvgDegree(100000, 10, xrand.New(7))
	const seeds = 5

	rules := []struct {
		name string
		slug string
		g    *graph.Graph
		mk   func(g *graph.Graph, opts ...mis.Option) mis.Process
		reps int // min-of-reps per seed
	}{
		{"2-state", "frontier_gnp1m", g1m,
			func(g *graph.Graph, opts ...mis.Option) mis.Process { return mis.NewTwoState(g, opts...) }, 3},
		{"3-state", "3state_gnp1m", g1m,
			func(g *graph.Graph, opts ...mis.Option) mis.Process { return mis.NewThreeState(g, opts...) }, 2},
		// The 3-color row runs at n = 10^5: its round count is driven by the
		// O(log^2 n)-period phase clock (≈1200 rounds at this size), so the
		// n = 10^6 instance costs about 18 s per run (1704 rounds, seed 1,
		// 2-vCPU Xeon) — eleven of them are past the CI budget.
		{"3-color", "3color_gnp100k", g100k,
			func(g *graph.Graph, opts ...mis.Option) mis.Process { return mis.NewThreeColor(g, opts...) }, 2},
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
		run(rule.mk(g100k))
		for seed := uint64(0); seed < seeds; seed++ {
			best := time.Duration(1 << 62)
			for rep := 0; rep < rule.reps; rep++ {
				start := time.Now()
				res := run(rule.mk(rule.g, mis.WithSeed(seed)))
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

	// Counter-plane row pairs: int32 counters forced by ForceFlatCounters
	// against the default lanes on the same execution — identical seeds,
	// rounds, and coins, so the ratio isolates counter storage. On
	// Chung-Lu(n=10^6, beta=2.5, avg degree 10) the maximum degree (31466)
	// needs 16-bit lanes, half the scatter traffic of int32; gated at 1.1x.
	// On G(n=10^6, avg degree 10) it fits byte lanes, a 4x shrink; gated at
	// 1.0x (the narrow lanes must never lose to flat). Against the shared
	// runner's noise each pair runs under shared run contexts with a warm-up
	// run excluded, and takes the minimum of 3 repetitions per (path, seed)
	// — scheduler steal only ever inflates a run — with the two paths
	// interleaved in alternating order so drift hits both alike.
	{
		const cSeeds = 5
		const cReps = 3
		pairs := []struct {
			key        string
			g          *graph.Graph
			slugFlat   string
			slugNarrow string
			gate       float64
			widthBits  int // the default lanes' width
		}{
			{"counters-chunglu", graph.ChungLu(1000000, 2.5, 10, xrand.New(7)),
				"kernel_flat_chunglu1m", "kernel_narrow_chunglu1m", 1.1, 16},
			{"counters-narrow", g1m, "kernel_flat_gnp1m", "kernel_narrow_gnp1m", 1.0, 8},
		}
		for _, pc := range pairs {
			ctxs := [2]*engine.RunContext{engine.NewRunContext(), engine.NewRunContext()}
			engine.ForceFlatCounters(ctxs[0])
			want := [2]engine.CounterPlaneInfo{
				{Layout: engine.LayoutFlat, WidthBits: 32, Active: true},
				{Layout: engine.LayoutNarrow, WidthBits: pc.widthBits, Active: true},
			}
			var totals [2]time.Duration
			var rounds [2]int
			one := func(i int, seed uint64, countRounds bool) time.Duration {
				p := mis.NewTwoState(pc.g, mis.WithSeed(seed), mis.WithRunContext(ctxs[i]))
				if info := p.CounterPlane(); info != want[i] {
					t.Fatalf("%s: plane %d resolved %+v, want %+v", pc.key, i, info, want[i])
				}
				start := time.Now()
				res := run(p)
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
				t.Fatalf("%s planes diverged: flat %d rounds, narrow %d rounds",
					pc.key, rounds[0], rounds[1])
			}
			speedup := float64(totals[0].Nanoseconds()) / float64(totals[1].Nanoseconds())
			rows = append(rows,
				row{Name: pc.slugFlat, NsPerRun: totals[0].Nanoseconds() / cSeeds},
				row{Name: pc.slugNarrow, NsPerRun: totals[1].Nanoseconds() / cSeeds})
			speedups[pc.key] = speedup
			gates[pc.key] = pc.gate
			roundsTotal[pc.key] = rounds[1]
			t.Logf("%s: flat %v, narrow %v, speedup %.2fx", pc.key, totals[0], totals[1], speedup)
		}
	}

	report := map[string]any{
		"description": "Bit-sliced engine speed record (full time-to-stabilization including process construction). The kernel_frontier_gnp1m, kernel_3state_gnp1m and kernel_3color_gnp100k rows are absolute: ns_per_run averages over seeds 0-4 the minimum of k repetitions per seed — k = 3 (2-state), 2 (3-state), 2 (3-color) — because shared-runner noise is additive and the min approaches the true time. 2-state and 3-state run G(n=10^6, avg degree 10); 3-color runs G(n=10^5, avg degree 10) because its phase clock drives ~1200 rounds per run. The gated row pairs replay identical executions two ways, so each ratio isolates one configuration choice: the counter lanes the graph's maximum degree selects against int32 counters forced by the tests' ForceFlatCounters hook. The counters-chunglu pair runs the 2-state engine on Chung-Lu(n=10^6, beta=2.5, avg degree 10), whose maximum degree 31466 selects 16-bit lanes; gated at >= 1.1x. The counters-narrow pair runs the 2-state engine on the G(n=10^6, avg degree 10) instance, whose maximum degree selects byte lanes; gated at >= 1.0x (narrow must never lose). All pairs: min of 3 interleaved repetitions per (configuration, seed), shared run contexts, warm-up excluded. Regenerate from the repository root with: BENCH_KERNEL_OUT=$PWD/BENCH_kernel.json go test -run TestKernelSpeedupGate ./internal/engine",
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

// --- counter-plane benchmarks: int32 counters forced by ForceFlatCounters,
// the flat rows beside the root package's BenchmarkEngineKernelGnp1M and
// BenchmarkEngineKernelChungLu1M, which run the same executions on the
// default lanes (coin-for-coin identical; only counter storage differs).
// The runs lease one shared forced context, so each run after the first
// reuses its scratch. The gated record lives in BENCH_kernel.json
// (counters-chunglu and counters-narrow row pairs). ---

func BenchmarkCountersFlatGnp1M(b *testing.B) {
	benchFlat(b, graph.GnpAvgDegree(1000000, 10, xrand.New(7)))
}

func BenchmarkCountersFlatChungLu1M(b *testing.B) {
	benchFlat(b, graph.ChungLu(1000000, 2.5, 10, xrand.New(7)))
}

// benchFlat measures full time-to-stabilization of the 2-state process on
// g with int32 counters forced.
func benchFlat(b *testing.B, g *graph.Graph) {
	ctx := engine.NewRunContext()
	engine.ForceFlatCounters(ctx)
	b.ReportAllocs()
	b.ResetTimer()
	rounds := 0
	for i := 0; i < b.N; i++ {
		res := run(mis.NewTwoState(g, mis.WithSeed(uint64(i)), mis.WithRunContext(ctx)))
		if !res.Stabilized {
			b.Fatal("run did not stabilize")
		}
		rounds += res.Rounds
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/run")
}
