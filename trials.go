package ssmis

import (
	"ssmis/internal/batch"
	"ssmis/internal/engine"
	"ssmis/internal/graph"
	"ssmis/internal/stats"
)

// TrialSummary aggregates a multi-seed measurement (see RunSeeds).
type TrialSummary struct {
	// Trials is the number of runs attempted; Failures counts runs that hit
	// the round cap without stabilizing.
	Trials   int
	Failures int
	// FailedSeeds lists the exact seeds of the failed runs (nil when none),
	// so a sweep failure reproduces with a single targeted re-run.
	FailedSeeds []uint64
	// Rounds statistics over the successful runs.
	MeanRounds   float64
	MedianRounds float64
	MaxRounds    float64
	// CI95 is the 95% confidence half-width of MeanRounds.
	CI95 float64
	// MeanRandomBits is the mean total random bits per successful run.
	MeanRandomBits float64
}

// RunSeeds runs newProcess(seed) to stabilization for every seed and
// aggregates the stabilization times — the library-level version of the
// experiment harness's inner loop, a thin adapter over the module's batch
// pool (internal/batch): outcomes stream in seed order into online
// aggregates, so the summary is bit-identical at any worker count.
// maxRounds <= 0 selects the default cap. An empty seed list returns the
// zero summary at once; otherwise workers == 0 selects GOMAXPROCS and a
// negative worker count panics. The factory must return a fresh process
// per call (it is invoked concurrently).
func RunSeeds(newProcess func(seed uint64) Process, seeds []uint64, maxRounds, workers int) TrialSummary {
	if len(seeds) == 0 {
		return TrialSummary{}
	}
	if workers > len(seeds) {
		workers = len(seeds)
	}
	pool := batch.NewPool(workers)
	defer pool.Close()
	return RunSeedsOn(pool, newProcess, seeds, maxRounds)
}

// RunSeedsOn is RunSeeds against a caller-owned pool, so many seed sweeps
// can share one pool's workers instead of paying a pool per call.
func RunSeedsOn(pool *batch.Pool, newProcess func(seed uint64) Process, seeds []uint64, maxRounds int) TrialSummary {
	shard := batch.Shard{
		Seeds: seeds,
		Run: func(_ *engine.RunContext, _ *graph.Graph, _ int, seed uint64) batch.Outcome {
			// The factory signature cannot thread the worker's run context
			// through; factories that want allocation amortization construct
			// their processes with WithRunContext themselves.
			p := newProcess(seed)
			res := Run(p, maxRounds)
			if !res.Stabilized {
				return batch.Outcome{Failed: true}
			}
			return batch.Outcome{Rounds: res.Rounds, Bits: res.RandomBits}
		},
	}
	sum := TrialSummary{Trials: len(seeds)}
	rounds := stats.NewQuantileStream()
	bits := stats.NewStream()
	pool.Submit([]batch.Shard{shard}, func(o batch.Outcome) {
		if o.Failed {
			sum.Failures++
			sum.FailedSeeds = append(sum.FailedSeeds, o.Seed)
			return
		}
		rounds.Add(float64(o.Rounds))
		bits.Add(float64(o.Bits))
	}).Wait()
	if rounds.N() > 0 {
		sum.MeanRounds = rounds.Mean()
		sum.MedianRounds = rounds.Quantile(0.5)
		sum.MaxRounds = rounds.Max()
		sum.CI95 = rounds.MeanCI95()
		sum.MeanRandomBits = bits.Mean()
	}
	return sum
}

// Seeds returns the slice [base, base+1, ..., base+count-1], the common
// argument to RunSeeds.
func Seeds(base uint64, count int) []uint64 {
	out := make([]uint64, count)
	for i := range out {
		out[i] = base + uint64(i)
	}
	return out
}
