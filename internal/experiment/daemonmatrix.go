package experiment

// The daemon-matrix sweep shape: randomized parallel processes and the
// sequential [28, 20] baseline measured under a set of daemon schedules,
// one moves/vertex row per (process, daemon) pair. E18 is this shape with
// the paper's parameters; scenario "daemon-matrix" units compile to the
// same runner, so a scenario reproducing E18's spec renders its table
// byte-identically.

import (
	"fmt"

	"ssmis/internal/engine"
	"ssmis/internal/graph"
	"ssmis/internal/mis"
	"ssmis/internal/sched"
	"ssmis/internal/stats"
	"ssmis/internal/verify"
)

// DaemonMatrixSpec declares one daemon-schedule matrix table.
type DaemonMatrixSpec struct {
	// TitleFormat renders the table title; it receives the resolved vertex
	// count and the trial count (two %d-style verbs in that order).
	TitleFormat string
	// Label prefixes the scheduler cell labels ("E18" for the registry
	// experiment, the scenario/unit name for compiled scenarios).
	Label string
	// Family generates the (per-seed) graphs at order N.At(scale).
	Family GraphFamily
	// N is the scale-dependent problem size.
	N ScaledSize
	// TrialsBase is the per-row trial count at scale 1.
	TrialsBase int
	// Kinds lists the parallel randomized processes to schedule (2-state
	// and/or 3-state; the 3-color process is not daemon-schedulable).
	Kinds []Kind
	// KindSeedOffset shifts the master seed of the parallel-process rows
	// (cfg.Seed + KindSeedOffset).
	KindSeedOffset uint64
	// Sequential adds the sequential baseline rows: the deterministic
	// [28, 20] rule and its randomized [28, 31] variant under the same
	// daemons.
	Sequential bool
	// SeqSeedOffset shifts the master seed of the sequential rows.
	SeqSeedOffset uint64
	// Daemons lists the daemon schedules (sched.DaemonByName names); nil
	// selects every registered daemon.
	Daemons []string
	// Notes are appended to the table verbatim.
	Notes []string
}

// daemonOutcome is one daemon-scheduled run's payload.
type daemonOutcome struct {
	movesPerV, steps float64
	ok               bool
}

// matrixProcess is one process of the matrix: a row per daemon, each row
// one pool job per trial.
type matrixProcess struct {
	name       string
	seedOffset uint64
	// livelock names the daemon the process is known to livelock under
	// ("" when none); that row runs 3 trials to livelockCap(n) steps.
	livelock    string
	livelockCap func(n int) int
	run         matrixTrial
}

// matrixTrial runs one trial for at most stepCap steps and returns the
// finished run, its steps and whether it stabilized.
type matrixTrial func(g *graph.Graph, d sched.Daemon, seed uint64, stepCap int) (r matrixRun, steps int, ok bool)

// matrixRun is what a row reads from a finished trial.
type matrixRun interface {
	Moves() int
	Black(u int) bool
}

// RunDaemonMatrix executes the spec against the configuration's shared
// pool and renders the matrix table.
//
// Two (process, daemon) pairs are known livelocks and get a demonstration
// row of 3 trials instead of the full trial count: the 3-state process
// under central-adversarial (its reactive demotion is starved forever — the
// boundary pinned by the k-fair tests in internal/mis) runs each trial to a
// 200·n step cap, and the deterministic sequential rule under the
// synchronous daemon (two adjacent actives flip together forever — the
// reason the parallel process randomizes) ends each trial when
// sched.Sequential.Run proves the livelock by a repeated configuration.
func RunDaemonMatrix(cfg Config, spec DaemonMatrixSpec) Table {
	cfg = cfg.normalized()
	trials := cfg.trials(spec.TrialsBase)
	n := spec.N.At(cfg.Scale)
	daemons := spec.Daemons
	if daemons == nil {
		daemons = sched.DaemonNames()
	}
	t := Table{
		Title: fmt.Sprintf(spec.TitleFormat, n, trials),
		Columns: []string{"process", "daemon", "moves/vertex mean", "moves/vertex max",
			"steps mean", "stabilized"},
	}
	var procs []matrixProcess
	for _, kind := range spec.Kinds {
		mp := matrixProcess{
			name:       kind.String(),
			seedOffset: spec.KindSeedOffset,
			run: func(g *graph.Graph, d sched.Daemon, seed uint64, stepCap int) (matrixRun, int, bool) {
				p := NewProcess(kind, g, mis.WithSeed(seed)).(mis.DaemonRunner)
				st, ok := p.DaemonRun(d, stepCap)
				return p, st, ok
			},
		}
		if kind == KindThreeState {
			mp.livelock = "central-adversarial"
			mp.livelockCap = func(n int) int { return 200 * n }
		}
		procs = append(procs, mp)
	}
	if spec.Sequential {
		// The sequential baseline the paper parallelizes ([28, 20]),
		// deterministic and randomized, under the same daemon set —
		// side-by-side moves/vertex against the parallel processes.
		seqRun := func(opts ...sched.Option) matrixTrial {
			return func(g *graph.Graph, d sched.Daemon, seed uint64, stepCap int) (matrixRun, int, bool) {
				s := sched.NewSequential(g, d, seed, opts...)
				st, ok := s.Run(stepCap)
				return s, st, ok
			}
		}
		procs = append(procs,
			matrixProcess{
				name:       "seq-det [28,20]",
				seedOffset: spec.SeqSeedOffset,
				livelock:   "synchronous",
				// Run ends these trials on a repeated configuration; the
				// cap bounds only a run where no proof exists, and a
				// synchronous step is a full round, so the round-cap
				// scale suffices.
				livelockCap: func(n int) int { return 4 * mis.DefaultRoundCap(n) },
				run:         seqRun(),
			},
			matrixProcess{name: "seq-rand [28,31]", seedOffset: spec.SeqSeedOffset, run: seqRun(sched.Randomized())},
		)
	}
	for _, mp := range procs {
		for _, dname := range daemons {
			addMatrixRow(cfg, &t, spec, n, trials, mp, dname)
		}
	}
	t.Notes = append(t.Notes, spec.Notes...)
	return t
}

// addMatrixRow runs process mp under daemon dname, one pool job per trial
// (daemon runs are long chains of tiny steps — exactly the cells that
// profit from spreading across the pool), and renders its row.
func addMatrixRow(cfg Config, t *Table, spec DaemonMatrixSpec, n, trials int, mp matrixProcess, dname string) {
	movesPerV, steps := stats.NewStream(), stats.NewStream()
	failed := 0
	// A known livelock would burn its step cap on every trial; keep one
	// demonstration row of 3 trials instead.
	livelock := dname == mp.livelock
	if livelock {
		trials = 3
	}
	RunJobs(cfg, fmt.Sprintf("%s %s/%s", spec.Label, mp.name, dname), trials, cfg.Seed+mp.seedOffset,
		func(_ *engine.RunContext, _ int, seed uint64) any {
			g := spec.Family.Build(n, seed)
			d, err := sched.DaemonByName(dname)
			if err != nil {
				panic(err)
			}
			stepCap := mis.DefaultDaemonStepCap(g.N())
			if livelock {
				stepCap = mp.livelockCap(g.N())
			}
			r, st, ok := mp.run(g, d, seed, stepCap)
			if !ok || verify.MIS(g, r.Black) != nil {
				return daemonOutcome{}
			}
			return daemonOutcome{
				movesPerV: float64(r.Moves()) / float64(g.N()),
				steps:     float64(st),
				ok:        true,
			}
		},
		func(_ int, payload any) {
			o := payload.(daemonOutcome)
			if !o.ok {
				failed++
				return
			}
			movesPerV.Add(o.movesPerV)
			steps.Add(o.steps)
		})
	if movesPerV.N() == 0 {
		status := fmt.Sprintf("0/%d", trials)
		if livelock {
			status += " (livelock)"
		}
		t.AddRow(mp.name, dname, "-", "-", "-", status)
		return
	}
	t.AddRow(mp.name, dname, movesPerV.Mean(), movesPerV.Max(), steps.Mean(), fmt.Sprintf("%d/%d", trials-failed, trials))
}
