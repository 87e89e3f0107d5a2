package experiment

import (
	"fmt"
	"math"
	"time"

	"ssmis/internal/batch"
	"ssmis/internal/engine"
	"ssmis/internal/graph"
	"ssmis/internal/mis"
	"ssmis/internal/stats"
	"ssmis/internal/verify"
	"ssmis/internal/xrand"
)

// GraphGen describes how a cell obtains its graphs: one fixed graph — built
// once and shared read-only across every trial by the batch scheduler's
// shard mechanism — or a fresh graph drawn per trial seed.
type GraphGen struct {
	fixed *graph.Graph
	gen   func(seed uint64) *graph.Graph
}

// FixedGraph adapts a pre-built graph: all trials share it.
func FixedGraph(g *graph.Graph) GraphGen { return GraphGen{fixed: g} }

// PerSeed adapts a random graph family: trial t samples gen(seed_t).
func PerSeed(gen func(seed uint64) *graph.Graph) GraphGen { return GraphGen{gen: gen} }

// At materializes the graph for one seed (custom per-trial loops).
func (g GraphGen) At(seed uint64) *graph.Graph {
	if g.fixed != nil {
		return g.fixed
	}
	return g.gen(seed)
}

// Measurement is a stabilization-time sample set plus bookkeeping. The
// samples live in streaming accumulators (Welford mean/CI, counting-map
// quantiles), fed in trial order by the scheduler's in-order delivery, so a
// cell never materializes per-run slices and its numbers are independent of
// the pool's worker count.
type Measurement struct {
	rounds    *stats.Stream // quantile stream over stabilization rounds
	bits      *stats.Stream // plain stream over random-bit totals
	failures  int           // runs that hit the round cap
	misBroken int           // stabilized runs whose black set is not an MIS (must be 0)
	trials    int
}

// NewMeasurement returns an empty measurement expecting the given trial
// count (custom aggregation loops — compiled scenarios on non-simulator
// runtimes — feed it through Add).
func NewMeasurement(trials int) *Measurement {
	return &Measurement{
		rounds: stats.NewQuantileStream(),
		bits:   stats.NewStream(),
		trials: trials,
	}
}

// Count returns the number of successful runs aggregated so far.
func (m *Measurement) Count() int { return m.rounds.N() }

// Summary of the round samples; panics if all trials failed.
func (m *Measurement) Summary() stats.Summary { return m.rounds.Summary() }

// RoundsValues returns the per-run stabilization-round samples in trial
// order (the tail-analysis input; allocates a copy).
func (m *Measurement) RoundsValues() []float64 { return m.rounds.Values() }

// Add folds one scheduler outcome into the aggregates.
func (m *Measurement) Add(o batch.Outcome) {
	switch {
	case o.Failed:
		m.failures++
	case o.Broken:
		m.misBroken++
	default:
		m.rounds.Add(float64(o.Rounds))
		m.bits.Add(float64(o.Bits))
	}
}

// TrialSeeds derives the harness's standard per-trial seeds: trial t uses
// xrand.New(masterSeed).Split(t).Uint64().
func TrialSeeds(masterSeed uint64, trials int) []uint64 {
	master := xrand.New(masterSeed)
	seeds := make([]uint64, trials)
	for t := range seeds {
		seeds[t] = master.Split(uint64(t)).Uint64()
	}
	return seeds
}

// RunTrials measures the stabilization time of `kind` over `trials` runs on
// graphs produced by gen, submitted as one shard to the configuration's
// shared batch pool. Fixed graphs are built once and shared
// read-only across the shard; per-seed families sample inside the job.
// Results are deterministic regardless of scheduling: every trial derives
// from its own seed and outcomes aggregate in trial order.
func RunTrials(cfg Config, kind Kind, gen GraphGen, trials int, roundCap int, masterSeed uint64, opts ...mis.Option) *Measurement {
	start := time.Now()
	label := fmt.Sprintf("%v trials=%d seed=%d", kind, trials, masterSeed)
	sh := batch.Shard{
		Seeds: TrialSeeds(masterSeed, trials),
		Run: func(rc *engine.RunContext, g *graph.Graph, _ int, seed uint64) batch.Outcome {
			if g == nil {
				g = gen.gen(seed)
			}
			limit := roundCap
			if limit <= 0 {
				limit = mis.DefaultRoundCap(g.N())
			}
			p := NewProcess(kind, g, append([]mis.Option{mis.WithRunContext(rc), mis.WithSeed(seed)}, opts...)...)
			res := mis.Run(p, limit)
			switch {
			case !res.Stabilized:
				return batch.Outcome{Failed: true}
			case verify.MIS(g, p.Black) != nil:
				return batch.Outcome{Broken: true}
			}
			return batch.Outcome{Rounds: res.Rounds, Bits: res.RandomBits}
		},
	}
	if gen.fixed != nil {
		g := gen.fixed
		sh.Build = func() *graph.Graph { return g }
	}
	m := NewMeasurement(trials)
	// With a sweep checkpoint attached, the cell's journaled prefix replays
	// through the reorder buffer instead of re-running, and new in-order
	// deliveries extend the journal (checkpoint.go).
	var opt batch.SubmitOptions
	if cfg.Checkpoint != nil {
		opt.Replay, opt.Record = cfg.Checkpoint.cell(label, trials)
	}
	cfg.pool().SubmitOpts([]batch.Shard{sh}, opt, m.Add).Wait()
	cfg.logCell(label, trials, time.Since(start))
	return m
}

// RunJobs submits one pool job per trial for cells that measure something
// other than plain stabilization times: trial t runs job(rc, t, seed_t) on
// a worker (seed derivation as in RunTrials) and its payload is handed
// back, in trial order, to collect. The harness's custom per-trial loops
// (runtime equivalence, churn chains, fault attacks, daemon schedules, ...)
// all route through here so a missweep invocation keeps every worker busy
// across experiment boundaries.
func RunJobs(cfg Config, label string, trials int, masterSeed uint64,
	job func(rc *engine.RunContext, t int, seed uint64) any,
	collect func(t int, payload any)) {
	RunJobsOver(cfg, label, TrialSeeds(masterSeed, trials), job, collect)
}

// RunJobsOver is RunJobs with an explicit seed list (one job per entry; job
// t receives seeds[t]).
func RunJobsOver(cfg Config, label string, seeds []uint64,
	job func(rc *engine.RunContext, t int, seed uint64) any,
	collect func(t int, payload any)) {
	start := time.Now()
	sh := batch.Shard{
		Seeds: seeds,
		Run: func(rc *engine.RunContext, _ *graph.Graph, i int, seed uint64) batch.Outcome {
			return batch.Outcome{Extra: job(rc, i, seed)}
		},
	}
	cfg.pool().Submit([]batch.Shard{sh}, func(o batch.Outcome) {
		collect(o.Index, o.Extra)
	}).Wait()
	cfg.logCell(label, len(seeds), time.Since(start))
}

// ScalingRow formats the standard scaling columns for a Measurement at size n.
func ScalingRow(t *Table, n int, m *Measurement) {
	if m.Count() == 0 {
		t.AddRow(n, "-", "-", "-", "-", "-", "-", fmt.Sprintf("%d/%d FAILED", m.failures, m.trials))
		return
	}
	s := m.Summary()
	ln := math.Log(float64(n))
	status := "ok"
	if m.failures > 0 {
		status = fmt.Sprintf("%d/%d capped", m.failures, m.trials)
	}
	if m.misBroken > 0 {
		status = fmt.Sprintf("%d NON-MIS", m.misBroken)
	}
	t.AddRow(n, s.Mean, s.MeanCI95(), s.Median, s.Max, s.Mean/ln, s.Max/(ln*ln), status)
}

// ScalingColumns is the header matching ScalingRow.
func ScalingColumns() []string {
	return []string{"n", "mean", "±95%", "median", "max", "mean/ln n", "max/ln² n", "status"}
}

// PolylogNote fits T ≈ c·ln^k n to the per-size means and renders the claim
// check note.
func PolylogNote(ns []int, means []float64) string {
	if len(ns) < 2 {
		return "too few sizes for a fit"
	}
	fn := make([]float64, len(ns))
	for i, n := range ns {
		fn[i] = float64(n)
	}
	c, k, r2 := stats.PolylogFit(fn, means)
	_, kPow, _ := stats.PowerFit(fn, means)
	return fmt.Sprintf("polylog fit: T ≈ %.2f·ln^%.2f(n) (R²=%.3f); power-law exponent if forced: n^%.3f",
		c, k, r2, kPow)
}
