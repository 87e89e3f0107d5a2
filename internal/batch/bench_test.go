package batch

// Batch-scheduler throughput: the batch pool (one job queue shared across
// cells, per-worker run contexts, streaming aggregation) against a faithful
// reconstruction of the pre-batch execution model (one ad-hoc worker pool
// per cell, fresh engine allocations per run, slice-based aggregation — the
// shape RunSeeds and the experiment harness's runTrials had before this
// package existed). The workload is the mixed sweep the acceptance
// criterion names: many small-graph cells plus a few large ones.
//
// Run with:
//
//	go test -bench 'BenchmarkSweep' -benchtime 3x ./internal/batch
//
// TestRecordBatchBench re-measures both paths directly and writes the
// comparison to the file named by BENCH_BATCH_OUT (CI records it as
// BENCH_batch.json at the repository root).

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"ssmis/internal/engine"
	"ssmis/internal/graph"
	"ssmis/internal/mis"
	"ssmis/internal/stats"
	"ssmis/internal/xrand"
)

// sweepCell is one cell of the mixed benchmark sweep.
type sweepCell struct {
	name  string
	build func() *graph.Graph // fixed graph, shared across the cell's seeds
	gen   func(seed uint64) *graph.Graph
	// oldRebuilds marks cells whose graph the pre-batch harness rebuilt on
	// every trial: deterministic families (path, grid, caterpillar) were
	// expressed as gen(seed) closures that ignore the seed, so the old
	// per-cell pools paid the build per run. The batch model's shard Build
	// runs once. Seed-dependent families (gen != nil) build per trial in
	// both models.
	oldRebuilds bool
	trials      int
}

// mixedSweep is the acceptance workload: many small-graph cells (the bulk
// of every experiment grid — tiny cliques and sparse G(n,p) instances run
// for hundreds of seeds) plus a few large cells. Small cells are where the
// scheduler's design pays: per-worker run contexts amortize the O(n)
// per-run allocations that dominate sub-millisecond runs, and one shared job
// queue replaces the old model's per-job unbuffered-channel handoff.
func mixedSweep() []sweepCell {
	var cells []sweepCell
	// Bounded-arboricity ladder cells (the E4 families): deterministic
	// builds the old harness repeated per trial.
	for i := 0; i < 8; i++ {
		i := i
		cells = append(cells, sweepCell{
			name:        fmt.Sprintf("caterpillar-%d", i),
			build:       func() *graph.Graph { return graph.Caterpillar(96+8*i, 8) },
			oldRebuilds: true,
			trials:      150,
		})
		cells = append(cells, sweepCell{
			name:        fmt.Sprintf("grid-%d", i),
			build:       func() *graph.Graph { return graph.Grid(28+2*i, 28+2*i) },
			oldRebuilds: true,
			trials:      120,
		})
	}
	for i := 0; i < 6; i++ {
		i := i
		cells = append(cells, sweepCell{
			name:        fmt.Sprintf("path-%d", i),
			build:       func() *graph.Graph { return graph.Path(1024 + 256*i) },
			oldRebuilds: true,
			trials:      100,
		})
	}
	// Clique tail-sampling cells (the E1 shape): prebuilt in both models.
	for i := 0; i < 10; i++ {
		i := i
		cells = append(cells, sweepCell{
			name:   fmt.Sprintf("small-clique-%d", i),
			build:  func() *graph.Graph { return graph.Complete(48 + 4*i) },
			trials: 400,
		})
	}
	// A few large cells.
	for i := 0; i < 2; i++ {
		i := i
		cells = append(cells, sweepCell{
			name:   fmt.Sprintf("large-gnp-%d", i),
			build:  func() *graph.Graph { return graph.GnpAvgDegree(20000, 10, xrand.New(uint64(500+i))) },
			trials: 3,
		})
	}
	return cells
}

type cellResult struct {
	mean     float64
	failures int
}

// runSweepOld executes the sweep the pre-batch way: one ad-hoc worker pool
// per cell, fresh per-run allocations, slice aggregation. This is a
// faithful transcription of the removed runTrials/RunSeeds inner loop.
func runSweepOld(cells []sweepCell, workers int) []cellResult {
	out := make([]cellResult, len(cells))
	for ci, cell := range cells {
		var fixed *graph.Graph
		gen := cell.gen
		if cell.build != nil {
			if cell.oldRebuilds {
				// The old harness expressed this deterministic family as a
				// seed-ignoring gen closure, so it rebuilt per trial.
				gen = func(uint64) *graph.Graph { return cell.build() }
			} else {
				fixed = cell.build()
			}
		}
		type outcome struct {
			rounds float64
			failed bool
		}
		outcomes := make([]outcome, cell.trials)
		w := workers
		if w > cell.trials {
			w = cell.trials
		}
		var wg sync.WaitGroup
		next := make(chan int)
		for k := 0; k < w; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for t := range next {
					seed := uint64(t + 1)
					g := fixed
					if g == nil {
						g = gen(seed)
					}
					p := mis.NewTwoState(g, mis.WithSeed(seed))
					res := mis.Run(p, mis.DefaultRoundCap(g.N()))
					if !res.Stabilized {
						outcomes[t].failed = true
						continue
					}
					outcomes[t] = outcome{rounds: float64(res.Rounds)}
				}
			}()
		}
		for t := 0; t < cell.trials; t++ {
			next <- t
		}
		close(next)
		wg.Wait()
		var rounds []float64
		failures := 0
		for _, o := range outcomes {
			if o.failed {
				failures++
				continue
			}
			rounds = append(rounds, o.rounds)
		}
		out[ci] = cellResult{mean: stats.Mean(rounds), failures: failures}
	}
	return out
}

// runSweepBatch executes the same sweep on one shared batch pool:
// every cell is a shard, graphs build once per shard, workers reuse their
// run contexts, and the aggregates stream.
func runSweepBatch(cells []sweepCell, workers int) []cellResult {
	pool := NewPool(workers)
	defer pool.Close()
	out := make([]cellResult, len(cells))
	streams := make([]*stats.Stream, len(cells))
	var shards []Shard
	for ci, cell := range cells {
		seeds := make([]uint64, cell.trials)
		for t := range seeds {
			seeds[t] = uint64(t + 1)
		}
		gen := cell.gen
		streams[ci] = stats.NewStream()
		shards = append(shards, Shard{
			Build: cell.build,
			Seeds: seeds,
			Run: func(rc *engine.RunContext, g *graph.Graph, _ int, seed uint64) Outcome {
				if g == nil {
					g = gen(seed)
				}
				p := mis.NewTwoState(g, mis.WithRunContext(rc), mis.WithSeed(seed))
				res := mis.Run(p, mis.DefaultRoundCap(g.N()))
				if !res.Stabilized {
					return Outcome{Failed: true}
				}
				return Outcome{Rounds: res.Rounds}
			},
		})
	}
	// One batch per cell (as the experiment harness submits), all sharing
	// the pool.
	batches := make([]*Batch, len(shards))
	for ci := range shards {
		ci := ci
		batches[ci] = pool.Submit(shards[ci:ci+1], func(o Outcome) {
			if o.Failed {
				out[ci].failures++
				return
			}
			streams[ci].Add(float64(o.Rounds))
		})
	}
	for ci, b := range batches {
		b.Wait()
		out[ci].mean = streams[ci].Mean()
	}
	return out
}

func benchWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w < 4 {
		w = 4 // acceptance point: workers >= 4 even on small containers
	}
	return w
}

func BenchmarkSweepOldPerCellPool(b *testing.B) {
	cells := mixedSweep()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSweepOld(cells, benchWorkers())
	}
}

func BenchmarkSweepBatchPool(b *testing.B) {
	cells := mixedSweep()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSweepBatch(cells, benchWorkers())
	}
}

// The two execution models must agree cell for cell (same seeds, same
// runs): the scheduler changes throughput, never results.
func TestSweepModelsAgree(t *testing.T) {
	cells := mixedSweep()[:6]
	old := runSweepOld(cells, 3)
	batch := runSweepBatch(cells, 7)
	for ci := range cells {
		// Means agree to rounding (Welford vs naive summation order);
		// failure counts agree exactly.
		if old[ci].failures != batch[ci].failures ||
			abs(old[ci].mean-batch[ci].mean) > 1e-9*(1+abs(old[ci].mean)) {
			t.Fatalf("cell %s: old %+v vs batch %+v", cells[ci].name, old[ci], batch[ci])
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestRecordBatchBench measures both sweep implementations and writes the
// comparison JSON to $BENCH_BATCH_OUT (skipped when unset). CI points it at
// BENCH_batch.json.
func TestRecordBatchBench(t *testing.T) {
	outPath := os.Getenv("BENCH_BATCH_OUT")
	if outPath == "" {
		t.Skip("BENCH_BATCH_OUT not set")
	}
	cells := mixedSweep()
	workers := benchWorkers()
	jobs := 0
	for _, c := range cells {
		jobs += c.trials
	}
	const reps = 3
	measure := func(run func([]sweepCell, int) []cellResult) time.Duration {
		best := time.Duration(1<<63 - 1)
		for r := 0; r < reps; r++ {
			start := time.Now()
			run(cells, workers)
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	// Interleave a warm-up of each, then best-of-reps.
	runSweepOld(cells[:4], workers)
	runSweepBatch(cells[:4], workers)
	oldBest := measure(runSweepOld)
	batchBest := measure(runSweepBatch)

	// The regression gate CI enforces (speedup >= gate) is recorded next to
	// the measurement so the workflow never hard-codes a core-count
	// assumption: on a single-CPU runner the win comes from context
	// amortization and shared builds alone and shared-runner noise is
	// proportionally larger (gate 0.9); with real parallelism the shared
	// queue, which lets workers run one cell's jobs while another cell's
	// last jobs finish, must additionally never lose to per-cell pools
	// (gate 1.0).
	gate := 0.9
	if runtime.GOMAXPROCS(0) > 1 {
		gate = 1.0
	}

	type row struct {
		Name       string  `json:"name"`
		NsPerSweep int64   `json:"ns_per_sweep"`
		RunsPerSec float64 `json:"runs_per_sec"`
	}
	report := map[string]any{
		"description": "Batch pool (one shared job queue) vs the pre-batch per-cell worker pools on the acceptance workload: a mixed sweep of 32 small cells (8 caterpillar, 8 grid, 6 path — the E4 deterministic families the old harness rebuilt per trial — plus 10 prebuilt cliques n=48..84) and 2 large cells (G(n=20000, avg10)), 2-state process, best of 3 sweeps. 'old_per_cell_pool' reconstructs the removed RunSeeds/runTrials model (pool per cell, per-trial builds of deterministic graphs, fresh allocations per run, slice aggregation); 'batch_pool' is internal/batch (one shared pool whose idle workers take the next job from one FIFO queue, per-worker run contexts, once-per-shard graph builds, streaming aggregation). On a 1-CPU container the speedup comes from context amortization and shared builds alone; multi-core adds the shared queue, where a worker that finishes one cell's jobs takes the next cell's instead of waiting for the cell's slowest run. The 'gate' field is the core-count-aware regression threshold CI enforces (0.9 at GOMAXPROCS=1 to absorb shared-runner noise, 1.0 with real parallelism). Regenerate with: BENCH_BATCH_OUT=$PWD/BENCH_batch.json go test -run TestRecordBatchBench ./internal/batch",
		"environment": map[string]any{
			"goos":         runtime.GOOS,
			"goarch":       runtime.GOARCH,
			"logical_cpus": runtime.NumCPU(),
			"gomaxprocs":   runtime.GOMAXPROCS(0),
			"go":           runtime.Version(),
			"workers":      workers,
			"jobs":         jobs,
		},
		"results": []row{
			{Name: "old_per_cell_pool", NsPerSweep: oldBest.Nanoseconds(),
				RunsPerSec: float64(jobs) / oldBest.Seconds()},
			{Name: "batch_pool", NsPerSweep: batchBest.Nanoseconds(),
				RunsPerSec: float64(jobs) / batchBest.Seconds()},
		},
		"speedup": float64(oldBest.Nanoseconds()) / float64(batchBest.Nanoseconds()),
		"gate":    gate,
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("old %v, batch %v, speedup %.2fx", oldBest, batchBest,
		float64(oldBest.Nanoseconds())/float64(batchBest.Nanoseconds()))
}
