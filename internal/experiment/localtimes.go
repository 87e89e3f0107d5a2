package experiment

// The local-times metric shape: the per-vertex stabilization-time
// distribution the engine's coverage stamps record (WithLocalTimes), swept
// over a size ladder — E14's first table extracted as a declarative spec so
// scenario "scaling" units can request the "local-times" metric alongside
// the plain rounds table.

import (
	"fmt"

	"ssmis/internal/engine"
	"ssmis/internal/mis"
	"ssmis/internal/stats"
)

// LocalTimesSpec declares one per-vertex stabilization-time table: local
// (coverage-stamp) quantiles against the global round count per ladder size.
// Only the synchronous simulator records coverage stamps, so this spec has
// no runtime axis.
type LocalTimesSpec struct {
	// Title is the rendered table title.
	Title string
	// Label prefixes the scheduler cell labels.
	Label string
	// Kind selects the process family.
	Kind Kind
	// Family generates the graphs.
	Family GraphFamily
	// Sizes is the full size ladder; Config.Scale may drop the tail.
	Sizes []int
	// TrialsBase is the trial count at scale 1.
	TrialsBase int
	// SeedOffset shifts the cell master seeds (cfg.Seed + SeedOffset + n).
	SeedOffset uint64
	// Notes are appended to the table verbatim.
	Notes []string
}

// RunLocalTimes executes the spec against the configuration's shared pool
// and renders the local-vs-global table (E14's shape: stream the per-vertex
// stamps into exact counting quantiles instead of a trials×n slice).
func RunLocalTimes(cfg Config, spec LocalTimesSpec) Table {
	cfg = cfg.normalized()
	sizes := cfg.sizes(spec.Sizes)
	trials := cfg.trials(spec.TrialsBase)
	t := Table{
		Title: spec.Title,
		Columns: []string{"n", "mean local", "median local", "p99 local",
			"global (max)", "mean/global"},
	}
	type localTimes struct {
		times  []int
		rounds int
		ok     bool
	}
	for _, n := range sizes {
		probe := spec.Family.Build(n, 1)
		actualN := probe.N()
		locals := stats.NewQuantileStream()
		globals := stats.NewStream()
		RunJobs(cfg, fmt.Sprintf("%s local-times n=%d", spec.Label, n), trials, cfg.Seed+spec.SeedOffset+uint64(n),
			func(rc *engine.RunContext, _ int, seed uint64) any {
				g := probe
				if !spec.Family.Det {
					g = spec.Family.Build(n, seed)
				}
				p := NewProcess(spec.Kind, g, mis.WithRunContext(rc), mis.WithSeed(seed), mis.WithLocalTimes())
				res := mis.Run(p, 4*mis.DefaultRoundCap(g.N()))
				if !res.Stabilized {
					return localTimes{}
				}
				return localTimes{times: stabilizationTimes(p), rounds: res.Rounds, ok: true}
			},
			func(_ int, payload any) {
				lt := payload.(localTimes)
				if !lt.ok {
					return
				}
				for _, ti := range lt.times {
					locals.Add(float64(ti))
				}
				globals.Add(float64(lt.rounds))
			})
		if locals.N() == 0 {
			t.AddRow(actualN, "-", "-", "-", "-", "-")
			continue
		}
		sl := locals.Summary()
		t.AddRow(actualN, sl.Mean, sl.Median, sl.P99, globals.Mean(), sl.Mean/globals.Mean())
	}
	t.Notes = append(t.Notes, spec.Notes...)
	return t
}

// stabilizationTimes extracts the coverage stamps from any of the three
// process implementations.
func stabilizationTimes(p mis.Process) []int {
	type stamped interface{ StabilizationTimes() []int }
	return p.(stamped).StabilizationTimes()
}
