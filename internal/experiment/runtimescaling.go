package experiment

// The runtime-scaling sweep shape: a stabilization-time scaling table like
// RunScalingSweep, but executed on one of the alternative runtimes — the
// lockstep beeping or stone-age medium (internal/noderun program sets) or
// the asynchronous drifting-clock medium (internal/async). Scenario
// "scaling" units with a non-sync runtime compile to this runner; the
// hand-coded experiments keep their own bespoke runtime tables (E12, E19),
// which measure equivalence rather than scaling.

import (
	"fmt"

	"ssmis/internal/async"
	"ssmis/internal/batch"
	"ssmis/internal/beeping"
	"ssmis/internal/engine"
	"ssmis/internal/graph"
	"ssmis/internal/mis"
	"ssmis/internal/stoneage"
	"ssmis/internal/verify"
)

// Runtime names a process execution medium.
type Runtime int

// Execution media.
const (
	// RuntimeSync is the array simulator (internal/mis on the shared
	// engine) — the default measurement path.
	RuntimeSync Runtime = iota
	// RuntimeBeeping is the lockstep node-program beeping medium (2-state
	// only: the 3-state and 3-color rules need the stone-age channels).
	RuntimeBeeping
	// RuntimeStoneAge is the lockstep node-program stone-age medium
	// (3-state and 3-color).
	RuntimeStoneAge
	// RuntimeAsync is the drifting-clock asynchronous medium (2-state and
	// 3-state); requires a Drift model.
	RuntimeAsync
)

func (r Runtime) String() string {
	switch r {
	case RuntimeSync:
		return "sync"
	case RuntimeBeeping:
		return "beeping"
	case RuntimeStoneAge:
		return "stone-age"
	case RuntimeAsync:
		return "async"
	default:
		return fmt.Sprintf("Runtime(%d)", int(r))
	}
}

// RuntimeSupports reports whether the runtime can execute the process kind:
// the beeping medium carries only the 2-state rule's single beep channel,
// the stone-age medium only the multi-channel 3-state/3-color rules, and
// the asynchronous medium implements the 2-state and 3-state program sets.
func RuntimeSupports(r Runtime, k Kind) bool {
	switch r {
	case RuntimeSync:
		return true
	case RuntimeBeeping:
		return k == KindTwoState
	case RuntimeStoneAge:
		return k == KindThreeState || k == KindThreeColor
	case RuntimeAsync:
		return k == KindTwoState || k == KindThreeState
	default:
		return false
	}
}

// RuntimeScalingSpec declares one scaling table on an alternative runtime.
// The table shape (columns, seed derivation, probe-at-seed-1 sizing, note
// order) matches ScalingSpec so sync and non-sync units render uniformly.
type RuntimeScalingSpec struct {
	// Title is the rendered table title.
	Title string
	// Runtime selects the medium (must not be RuntimeSync — sync units are
	// ScalingSpec's job and keep the Measurement fast path).
	Runtime Runtime
	// Drift is the clock-drift model; required for RuntimeAsync, ignored
	// otherwise.
	Drift async.Drift
	// Kind selects the process family; must satisfy RuntimeSupports.
	Kind Kind
	// Family generates the graphs.
	Family GraphFamily
	// Sizes is the full size ladder; Config.Scale may drop the tail.
	Sizes []int
	// TrialsBase is the trial count at scale 1.
	TrialsBase int
	// RoundCap bounds each run; <= 0 uses the medium's default (the
	// simulator round cap, with 8x slack under async drift).
	RoundCap int
	// SeedOffset shifts the cell master seeds exactly as ScalingSpec does.
	SeedOffset uint64
	// ClaimNotes are appended to the table verbatim, before the fit note.
	ClaimNotes []string
	// PolylogNote appends the T ≈ c·ln^k n fit note over the per-size means.
	PolylogNote bool
}

// RunRuntimeScaling executes the spec against the configuration's shared
// pool and renders its table. Node-program and async runs cannot lease the
// engine's per-worker contexts, so each trial owns its medium; the pool
// still spreads trials across workers.
func RunRuntimeScaling(cfg Config, spec RuntimeScalingSpec) Table {
	cfg = cfg.normalized()
	sizes := cfg.sizes(spec.Sizes)
	trials := cfg.trials(spec.TrialsBase)
	t := Table{Title: spec.Title, Columns: ScalingColumns()}
	var ns []int
	var means []float64
	type runtimeOutcome struct {
		rounds int
		failed bool
		broken bool
	}
	for _, n := range sizes {
		probe := spec.Family.Build(n, 1)
		actualN := probe.N()
		m := NewMeasurement(trials)
		RunJobs(cfg, fmt.Sprintf("%s n=%d", spec.Title, n), trials, cfg.Seed+spec.SeedOffset+uint64(n),
			func(_ *engine.RunContext, _ int, seed uint64) any {
				g := probe
				if !spec.Family.Det {
					g = spec.Family.Build(n, seed)
				}
				rounds, ok, black := runOnRuntime(spec, g, seed)
				switch {
				case !ok:
					return runtimeOutcome{failed: true}
				case verify.MIS(g, black) != nil:
					return runtimeOutcome{broken: true}
				}
				return runtimeOutcome{rounds: rounds}
			},
			func(_ int, payload any) {
				o := payload.(runtimeOutcome)
				m.Add(batch.Outcome{Failed: o.failed, Broken: o.broken, Rounds: o.rounds})
			})
		ScalingRow(&t, actualN, m)
		if m.Count() > 0 {
			ns = append(ns, actualN)
			means = append(means, m.Summary().Mean)
		}
	}
	t.Notes = append(t.Notes, spec.ClaimNotes...)
	if spec.PolylogNote {
		t.Notes = append(t.Notes, PolylogNote(ns, means))
	}
	return t
}

// runOnRuntime executes one trial on the spec's medium and returns the
// stabilization round count, success, and the terminal color projection.
func runOnRuntime(spec RuntimeScalingSpec, g *graph.Graph, seed uint64) (int, bool, func(int) bool) {
	limit := spec.RoundCap
	switch spec.Runtime {
	case RuntimeBeeping:
		if limit <= 0 {
			limit = 4 * mis.DefaultRoundCap(g.N())
		}
		m := beeping.NewMIS(g, seed, nil)
		r, ok := m.Run(limit)
		return r, ok, m.Black
	case RuntimeStoneAge:
		if limit <= 0 {
			limit = 4 * mis.DefaultRoundCap(g.N())
		}
		if spec.Kind == KindThreeColor {
			m := stoneage.NewThreeColorMIS(g, seed, nil, nil)
			r, ok := m.Run(limit)
			return r, ok, m.Black
		}
		m := stoneage.NewThreeStateMIS(g, seed, nil)
		r, ok := m.Run(limit)
		return r, ok, m.Black
	case RuntimeAsync:
		if limit <= 0 {
			limit = 8 * mis.DefaultRoundCap(g.N())
		}
		if spec.Kind == KindThreeState {
			m := async.NewThreeStateMIS(g, seed, spec.Drift, nil)
			r, ok := m.Run(limit)
			return r, ok, m.Black
		}
		m := async.NewMIS(g, seed, spec.Drift, nil)
		r, ok := m.Run(limit)
		return r, ok, m.Black
	default:
		panic(fmt.Sprintf("experiment: RunRuntimeScaling on runtime %v", spec.Runtime))
	}
}
