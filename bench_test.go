// Module-level benchmarks: one benchmark per reproduction experiment
// (indexed by `go run ./cmd/missweep -list`) plus micro-benchmarks of the
// simulator's per-round cost. Each experiment benchmark executes the
// harness at reduced scale and prints its tables once, so
// `go test -bench=. -benchmem` regenerates the full set of
// paper-reproduction rows; full-scale tables come from
// `go run ./cmd/missweep -run all`.
package ssmis_test

import (
	"fmt"
	"sync"
	"testing"

	"ssmis"
	"ssmis/internal/baseline"
	"ssmis/internal/engine"
	"ssmis/internal/graph"
	"ssmis/internal/mis"
	"ssmis/internal/xrand"
)

// benchScale keeps the full `go test -bench=.` sweep around laptop-minutes.
const benchScale = 0.1

var printOnce sync.Map

// runExperiment executes experiment `id` b.N times, printing its tables on
// the first execution only.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := ssmis.ExperimentByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	cfg := ssmis.ExperimentConfig{Scale: benchScale, Seed: 2023}
	for i := 0; i < b.N; i++ {
		tables := e.Run(cfg)
		if len(tables) == 0 {
			b.Fatalf("%s produced no tables", id)
		}
		if _, done := printOnce.LoadOrStore(id, true); !done {
			fmt.Printf("\n### %s — %s (benchmark scale %.2f)\n", e.ID, e.Title, benchScale)
			for _, t := range tables {
				fmt.Print(t.Render())
			}
		}
	}
}

func BenchmarkE01CliqueTwoState(b *testing.B)    { runExperiment(b, "E1") }
func BenchmarkE02DisjointCliques(b *testing.B)   { runExperiment(b, "E2") }
func BenchmarkE03CliqueThreeState(b *testing.B)  { runExperiment(b, "E3") }
func BenchmarkE04Trees(b *testing.B)             { runExperiment(b, "E4") }
func BenchmarkE05MaxDegree(b *testing.B)         { runExperiment(b, "E5") }
func BenchmarkE06GnpTwoState(b *testing.B)       { runExperiment(b, "E6") }
func BenchmarkE07GnpThreeColor(b *testing.B)     { runExperiment(b, "E7") }
func BenchmarkE08LogSwitch(b *testing.B)         { runExperiment(b, "E8") }
func BenchmarkE09GoodGraph(b *testing.B)         { runExperiment(b, "E9") }
func BenchmarkE10Baselines(b *testing.B)         { runExperiment(b, "E10") }
func BenchmarkE11SelfStabilization(b *testing.B) { runExperiment(b, "E11") }
func BenchmarkE12Runtimes(b *testing.B)          { runExperiment(b, "E12") }
func BenchmarkE13Ablations(b *testing.B)         { runExperiment(b, "E13") }
func BenchmarkE14LocalTimes(b *testing.B)        { runExperiment(b, "E14") }
func BenchmarkE15TopologyChurn(b *testing.B)     { runExperiment(b, "E15") }
func BenchmarkE16MISQuality(b *testing.B)        { runExperiment(b, "E16") }
func BenchmarkE17RestartScheme(b *testing.B)     { runExperiment(b, "E17") }
func BenchmarkE18DaemonSchedules(b *testing.B)   { runExperiment(b, "E18") }
func BenchmarkE19AsyncDrift(b *testing.B)        { runExperiment(b, "E19") }

// --- simulator micro-benchmarks ---

func benchFullRun(b *testing.B, mk func(seed uint64) ssmis.Result) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer() // exclude graph construction in the caller
	rounds := 0
	for i := 0; i < b.N; i++ {
		res := mk(uint64(i))
		if !res.Stabilized {
			b.Fatal("run did not stabilize")
		}
		rounds += res.Rounds
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/run")
}

func BenchmarkRunTwoStateGnp10k(b *testing.B) {
	g := ssmis.GnpAvgDegree(10000, 10, 1)
	benchFullRun(b, func(seed uint64) ssmis.Result {
		return ssmis.Run(ssmis.NewTwoState(g, ssmis.WithSeed(seed)), 0)
	})
}

func BenchmarkRunTwoStateClique4k(b *testing.B) {
	g := ssmis.Complete(4096)
	benchFullRun(b, func(seed uint64) ssmis.Result {
		return ssmis.Run(ssmis.NewTwoState(g, ssmis.WithSeed(seed)), 0)
	})
}

func BenchmarkRunThreeStateGnp10k(b *testing.B) {
	g := ssmis.GnpAvgDegree(10000, 10, 2)
	benchFullRun(b, func(seed uint64) ssmis.Result {
		return ssmis.Run(ssmis.NewThreeState(g, ssmis.WithSeed(seed)), 0)
	})
}

func BenchmarkRunThreeColorGnp5k(b *testing.B) {
	g := ssmis.GnpAvgDegree(5000, 20, 3)
	benchFullRun(b, func(seed uint64) ssmis.Result {
		return ssmis.Run(ssmis.NewThreeColor(g, ssmis.WithSeed(seed)), 0)
	})
}

func BenchmarkStepTwoStateGnp100k(b *testing.B) {
	// Per-round cost on a large sparse graph, measured mid-run (states kept
	// away from stabilization by reinitializing when it gets close).
	g := graph.GnpAvgDegree(100000, 10, xrand.New(4))
	p := mis.NewTwoState(g, mis.WithSeed(9), mis.WithInit(mis.InitAllWhite))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.Stabilized() {
			b.StopTimer()
			p = mis.NewTwoState(g, mis.WithSeed(uint64(i)), mis.WithInit(mis.InitAllWhite))
			b.StartTimer()
		}
		p.Step()
	}
}

// --- shared-engine benchmarks: the bit-sliced engine on sparse, heavy-tailed
// and complete graphs for all three rules (see BENCH_engine.json for
// recorded results). ---

// benchEngine measures full time-to-stabilization of the 2-state process on
// a fixed graph under the given extra options.
func benchEngine(b *testing.B, g *ssmis.Graph, opts ...ssmis.Option) {
	b.Helper()
	benchEngineProc(b, g, func(g *ssmis.Graph, opts ...ssmis.Option) ssmis.Process {
		return ssmis.NewTwoState(g, opts...)
	}, opts...)
}

// benchEngineProc is benchEngine generalized over the process constructor,
// for the 3-state and 3-color rows.
func benchEngineProc(b *testing.B, g *ssmis.Graph,
	mk func(g *ssmis.Graph, opts ...ssmis.Option) ssmis.Process, opts ...ssmis.Option) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	rounds := 0
	for i := 0; i < b.N; i++ {
		all := append([]ssmis.Option{ssmis.WithSeed(uint64(i))}, opts...)
		res := ssmis.Run(mk(g, all...), 0)
		if !res.Stabilized {
			b.Fatal("run did not stabilize")
		}
		rounds += res.Rounds
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/run")
}

func BenchmarkEngineFrontierGnp100k(b *testing.B) {
	benchEngine(b, ssmis.GnpAvgDegree(100000, 10, 7))
}

func BenchmarkEngineFrontierChungLu100k(b *testing.B) {
	benchEngine(b, ssmis.ChungLu(100000, 2.5, 10, 7))
}

func BenchmarkEngineKernelGnp1M(b *testing.B) {
	// The n=10^6 frontier workload (the misbench gnp1m-2state instance).
	benchEngine(b, ssmis.GnpAvgDegree(1000000, 10, 7))
}

func BenchmarkEngineKernelChungLu1M(b *testing.B) {
	benchEngine(b, ssmis.ChungLu(1000000, 2.5, 10, 7))
}

func BenchmarkEngineKernelClique4k(b *testing.B) {
	// Refresh-heavy: on a complete graph every changing round sets dirtyAll,
	// and hasBlackNbr is re-derived from the class total in O(n/64) words.
	benchEngine(b, ssmis.Complete(4096))
}

// --- counter-plane benchmarks: the flat full-width int32 counter arrays
// against the width-adaptive/hub-split plane on the same kernel executions
// (coin-for-coin identical; only counter storage differs). The gated record
// lives in BENCH_kernel.json (counters-split and counters-narrow row
// pairs). ---

func BenchmarkCountersFlatGnp1M(b *testing.B) {
	benchEngine(b, ssmis.GnpAvgDegree(1000000, 10, 7),
		mis.WithCounterLayout(engine.LayoutFlat))
}

func BenchmarkCountersNarrowGnp1M(b *testing.B) {
	// Auto resolves the same geometry on this degree profile (max degree
	// fits a byte, no hub prefix): narrow lanes, 4x less scatter traffic.
	benchEngine(b, ssmis.GnpAvgDegree(1000000, 10, 7),
		mis.WithCounterLayout(engine.LayoutNarrow))
}

func BenchmarkCountersFlatChungLu1M(b *testing.B) {
	// Heavy-tailed degrees in the generator's weight-sorted ids: hubs
	// first, flat int32 counters — the baseline for the split row below.
	benchEngine(b, ssmis.ChungLu(1000000, 2.5, 10, 7),
		mis.WithCounterLayout(engine.LayoutFlat))
}

func BenchmarkCountersSplitChungLu1M(b *testing.B) {
	// The hub/tail split: dense int32 hub rows stay cache-resident, the
	// tail lives in byte lanes.
	benchEngine(b, ssmis.ChungLu(1000000, 2.5, 10, 7),
		mis.WithCounterLayout(engine.LayoutSplit))
}

func mk3State(g *ssmis.Graph, opts ...ssmis.Option) ssmis.Process {
	return ssmis.NewThreeState(g, opts...)
}

func mk3Color(g *ssmis.Graph, opts ...ssmis.Option) ssmis.Process {
	return ssmis.NewThreeColor(g, opts...)
}

func BenchmarkEngineKernel3StateGnp1M(b *testing.B) {
	// The generic two-lane kernel path (no XOR-flip fast path): black0/black1
	// in the lo/hi lanes, forced demotion folded into the hasBNbr lane.
	benchEngineProc(b, ssmis.GnpAvgDegree(1000000, 10, 7), mk3State)
}

func BenchmarkEngineKernel3ColorGnp100k(b *testing.B) {
	// The gate lane: the phase-clock switch re-exported after every
	// mid-round, gray→white gated per vertex. 3-color runs at n=10^5: the
	// O(log^2 n)-period phase clock drives ~1200 rounds per run at this
	// size, so the 1M instance costs minutes.
	benchEngineProc(b, ssmis.GnpAvgDegree(100000, 10, 7), mk3Color)
}

func BenchmarkBeepingRuntime1k(b *testing.B) {
	// Node-program runtime cost: full stabilization on 1000 nodes.
	g := ssmis.GnpAvgDegree(1000, 8, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := ssmis.NewBeepingMIS(g, uint64(i), nil)
		if _, ok := m.Run(1 << 20); !ok {
			b.Fatal("did not stabilize")
		}
	}
}

func BenchmarkLubyGnp10k(b *testing.B) {
	g := ssmis.GnpAvgDegree(10000, 10, 6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if baseline.Luby(g, uint64(i)).Rounds == 0 {
			b.Fatal("luby returned no rounds")
		}
	}
}
