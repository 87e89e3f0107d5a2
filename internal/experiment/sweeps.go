package experiment

// Shared sweep shapes: the declarative cores of the hand-coded experiments,
// extracted so compiled scenarios (internal/scenario) and the E-registry
// run the SAME code over the SAME batch-pool path. A scenario that
// reproduces an experiment's spec produces byte-identical tables — the
// golden tests in internal/scenario and the CI scenario-vs-experiment
// sweep smoke pin that equality for E1, E4 and E18, whose scenarios are
// examples/scenarios/e1.json, e4.json and e18.json.

import (
	"fmt"
	"math"

	"ssmis/internal/graph"
	"ssmis/internal/stats"
)

// GraphFamily is a named, seedable graph constructor: Build(n, seed) draws
// the family's instance of requested order n. Deterministic families ignore
// the seed; their cells submit as fixed shards so the batch scheduler
// builds the graph once instead of once per trial.
type GraphFamily struct {
	// Name identifies the family in reports and scenario files.
	Name string
	// Build constructs the instance for one (order, seed) pair. The
	// realized order may differ from n (e.g. caterpillars round to a whole
	// number of spine segments); sweeps report the realized order.
	Build func(n int, seed uint64) *graph.Graph
	// Det marks deterministic families (Build ignores its seed).
	Det bool
}

// ScalingSpec declares one stabilization-time scaling table: a process
// swept over a size ladder of one graph family, with the standard scaling
// columns and claim-check notes. This is the shape of E1, E4 (one spec per
// family) and of scenario "scaling" units.
type ScalingSpec struct {
	// Title is the rendered table title.
	Title string
	// Kind selects the process family.
	Kind Kind
	// Family generates the graphs.
	Family GraphFamily
	// Sizes is the full size ladder; Config.Scale may drop the tail.
	Sizes []int
	// TrialsBase is the trial count at scale 1.
	TrialsBase int
	// RoundCap bounds each run; <= 0 uses mis.DefaultRoundCap.
	RoundCap int
	// SeedOffset shifts the cell master seeds: the cell at ladder size n
	// uses cfg.Seed + SeedOffset + n.
	SeedOffset uint64
	// ClaimNotes are appended to the table verbatim, before the fit notes.
	ClaimNotes []string
	// PolylogNote appends the T ≈ c·ln^k n fit note over the per-size means.
	PolylogNote bool
	// MaxFitNote, when non-empty, is a format string receiving the fitted
	// ln-exponent of the per-size maxima (one %.2f-style verb); the note is
	// emitted only when at least two sizes succeeded.
	MaxFitNote string
	// Tail, when non-nil, adds a geometric-tail table over the largest
	// ladder size's round samples.
	Tail *TailSpec
}

// TailSpec declares a geometric-tail table: the empirical P[T ≥ k·log2 n]
// ladder on one sample set, with the linear-decay slope note (E1b's shape).
type TailSpec struct {
	// Title is the rendered table title.
	Title string
	// KMax is the largest tail multiple reported (rows k = 1..KMax).
	KMax int
}

// RunScalingSweep executes the spec against the configuration's shared pool
// and renders its table (plus the tail table when requested).
func RunScalingSweep(cfg Config, spec ScalingSpec) []Table {
	cfg = cfg.normalized()
	sizes := cfg.sizes(spec.Sizes)
	trials := cfg.trials(spec.TrialsBase)
	t := Table{Title: spec.Title, Columns: ScalingColumns()}
	var ns []int
	var means, maxes []float64
	var tailSample []float64
	for _, n := range sizes {
		probe := spec.Family.Build(n, 1)
		actualN := probe.N()
		gen := PerSeed(func(seed uint64) *graph.Graph { return spec.Family.Build(n, seed) })
		if spec.Family.Det {
			gen = FixedGraph(probe)
		}
		m := RunTrials(cfg, spec.Kind, gen, trials, spec.RoundCap, cfg.Seed+spec.SeedOffset+uint64(n))
		ScalingRow(&t, actualN, m)
		if m.Count() > 0 {
			ns = append(ns, actualN)
			means = append(means, m.Summary().Mean)
			maxes = append(maxes, m.Summary().Max)
			if spec.Tail != nil && n == sizes[len(sizes)-1] {
				tailSample = m.RoundsValues()
			}
		}
	}
	t.Notes = append(t.Notes, spec.ClaimNotes...)
	if spec.PolylogNote {
		t.Notes = append(t.Notes, PolylogNote(ns, means))
	}
	if spec.MaxFitNote != "" && len(ns) >= 2 {
		fn := make([]float64, len(ns))
		for i, n := range ns {
			fn[i] = float64(n)
		}
		_, kMax, _ := stats.PolylogFit(fn, maxes)
		t.Notes = append(t.Notes, fmt.Sprintf(spec.MaxFitNote, kMax))
	}
	tables := []Table{t}
	if spec.Tail != nil {
		tables = append(tables, GeometricTailTable(*spec.Tail, sizes[len(sizes)-1], tailSample))
	}
	return tables
}

// GeometricTailTable renders the empirical tail P[T ≥ k·log2 n] of one
// sample set for k = 1..KMax, with the fitted decay-slope note. n is the
// requested ladder size the sample was drawn at.
func GeometricTailTable(spec TailSpec, n int, sample []float64) Table {
	t := Table{
		Title:   spec.Title,
		Columns: []string{"k", "P[T ≥ k·log2 n]"},
	}
	if len(sample) > 0 {
		scale := math.Log2(float64(n))
		for k := 1; k <= spec.KMax; k++ {
			cnt := 0
			for _, x := range sample {
				if x >= float64(k)*scale {
					cnt++
				}
			}
			t.AddRow(k, float64(cnt)/float64(len(sample)))
		}
		slope, points := stats.GeometricTailSlope(sample, scale, 5)
		t.Notes = append(t.Notes,
			fmt.Sprintf("claim shape: log2 of the tail decays linearly in k; fitted slope %.2f over %d points (Θ(1) expected)",
				slope, points))
	}
	return t
}

// ScaledSize is the harness's standard scale-dependent problem size:
// At(scale) = Base·min(2·scale, 1), clamped below at Min. E10, E18 and E19
// all size their fixed-n workloads this way.
type ScaledSize struct {
	Base int
	Min  int
}

// At resolves the size for one configuration scale.
func (s ScaledSize) At(scale float64) int {
	n := int(float64(s.Base) * math.Min(scale*2, 1))
	if n < s.Min {
		n = s.Min
	}
	return n
}
