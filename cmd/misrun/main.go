// Command misrun executes one self-stabilizing MIS process on one graph and
// prints the outcome: rounds to stabilization, random bits consumed, and the
// MIS size, with optional per-round progress.
//
// Usage:
//
//	misrun -graph gnp -n 1000 -p 0.01 -proc 2state -seed 42 -progress
//
// Graphs: gnp, clique, path, cycle, star, tree, grid, cliques, regular, or
// file (-in <edge-list>). Processes: 2state, 3state, 3color. Engines: sim
// (default), node (the beeping/stone-age runtime: one node program per
// vertex, stepped in lockstep rounds).
// With -trials N, the seeds run on the batch pool (-workers sizes it)
// sharing one graph build and per-worker engine scratch; the summary
// reports wall time and the exact seeds of failed runs.
//
// With -async the process (2state or 3state) runs on the asynchronous
// beeping medium: per-node clocks advanced by a drift model (-drift sets
// the bound ρ, -drift-model selects bounded|eventual-sync|adversarial,
// -gst the eventual-sync stabilization time in base slots). The execution
// is a pure function of the flags — replays are byte-identical, which the
// CI deterministic-replay smoke asserts:
//
//	misrun -graph gnp -n 300 -p 0.02 -proc 2state -seed 7 -async -drift 1.5
//
// Checkpointing (sim engine, single runs and -daemon runs): -checkpoint
// writes a versioned process snapshot (internal/snapshot envelope: format
// version, checksum, atomic write-rename) when the run exits, and every
// -checkpoint-every rounds (daemon steps under -daemon) mid-run; -resume
// restores one and continues the exact execution — same coins, same
// rounds, same daemon selections (stateful daemons' schedule history
// rides in the snapshot). Interrupt a run with -max-rounds, resume it,
// and the final line is byte-identical to the uninterrupted run:
//
//	misrun -graph gnp -n 500 -seed 3 -max-rounds 10 -checkpoint s.ckpt
//	misrun -graph gnp -n 500 -seed 3 -resume s.ckpt
//
// Truncated, corrupted, or version-skewed snapshot files are rejected
// loudly instead of resuming silently wrong.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"ssmis/internal/async"
	"ssmis/internal/batch"
	"ssmis/internal/beeping"
	"ssmis/internal/engine"
	"ssmis/internal/experiment"
	"ssmis/internal/graph"
	"ssmis/internal/graphio"
	"ssmis/internal/mis"
	"ssmis/internal/sched"
	"ssmis/internal/snapshot"
	"ssmis/internal/stats"
	"ssmis/internal/stoneage"
	"ssmis/internal/verify"
	"ssmis/internal/xrand"
)

func newBeeping(g *graph.Graph, seed uint64) *beeping.MIS {
	return beeping.NewMIS(g, seed, nil)
}

func newStoneAge3S(g *graph.Graph, seed uint64) *stoneage.ThreeStateMIS {
	return stoneage.NewThreeStateMIS(g, seed, nil)
}

func newStoneAge3C(g *graph.Graph, seed uint64) *stoneage.ThreeColorMIS {
	return stoneage.NewThreeColorMIS(g, seed, nil, nil)
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		graphKind = flag.String("graph", "gnp", "graph family: gnp|clique|path|cycle|star|tree|grid|cliques|regular|file")
		inPath    = flag.String("in", "", "edge-list file to load when -graph file")
		n         = flag.Int("n", 1000, "number of vertices")
		p         = flag.Float64("p", 0.01, "edge probability (gnp) ")
		degree    = flag.Int("d", 8, "degree (regular)")
		procKind  = flag.String("proc", "2state", "process: 2state|3state|3color")
		seed      = flag.Uint64("seed", 1, "master seed")
		initKind  = flag.String("init", "random", "initialization: random|all-white|all-black|checkerboard|near-mis")
		maxRounds = flag.Int("max-rounds", 0, "round cap (0 = default); with -daemon this caps daemon steps, which are single-vertex moves under central daemons")
		progress  = flag.Bool("progress", false, "print per-round aggregates")
		engine    = flag.String("engine", "sim", "execution engine: sim|node")
		asyncMode = flag.Bool("async", false, "run on the asynchronous beeping medium with per-node clocks (2state/3state only)")
		drift     = flag.Float64("drift", 1, "clock-drift bound ρ >= 1 for -async (1 = lockstep)")
		driftName = flag.String("drift-model", "bounded", "drift model for -async: "+strings.Join(async.DriftNames(), "|"))
		gst       = flag.Int("gst", 64, "eventual-sync drift: base slots before clock rates synchronize")
		daemon    = flag.String("daemon", "", "schedule the process under a daemon: "+strings.Join(sched.DaemonNames(), "|")+" (2state/3state only)")
		trials    = flag.Int("trials", 1, "run this many seeds (seed, seed+1, ...) and print summary statistics")
		workers   = flag.Int("workers", 0, "worker pool size for -trials (0 = GOMAXPROCS)")
		ckptPath  = flag.String("checkpoint", "", "write a resumable process snapshot here at exit (atomic write-rename)")
		ckptEvery = flag.Int("checkpoint-every", 0, "also snapshot every this many rounds (daemon steps with -daemon); 0 = only at exit")
		resumeStr = flag.String("resume", "", "resume the run from this process snapshot (sim engine; graph flags must rebuild the same graph)")
	)
	flag.Parse()

	// The pool's 0 = GOMAXPROCS convention must not swallow negative typos
	// (-workers -3) silently, nor may the 0 = default cap of -max-rounds. A
	// -trials below 1 would run a single seed, and a negative
	// -checkpoint-every would write only the exit snapshot.
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "misrun: -workers must be >= 0 (0 = GOMAXPROCS), got %d\n", *workers)
		return 2
	}
	if *maxRounds < 0 {
		fmt.Fprintf(os.Stderr, "misrun: -max-rounds must be >= 0 (0 = default cap), got %d\n", *maxRounds)
		return 2
	}
	if *trials < 1 {
		fmt.Fprintf(os.Stderr, "misrun: -trials must be >= 1, got %d\n", *trials)
		return 2
	}
	if *ckptEvery < 0 {
		fmt.Fprintf(os.Stderr, "misrun: -checkpoint-every must be >= 0 (0 = only at exit), got %d\n", *ckptEvery)
		return 2
	}
	// -workers sizes the -trials pool; a single run has no pool, so the
	// flag without -trials would be silently ignored.
	if *trials <= 1 && *workers != 0 {
		fmt.Fprintln(os.Stderr, "misrun: -workers sizes the -trials pool; it needs -trials > 1")
		return 2
	}

	g, err := buildGraph(*graphKind, *inPath, *n, *p, *degree, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "misrun:", err)
		return 2
	}
	limit := *maxRounds
	if limit <= 0 {
		limit = 8 * mis.DefaultRoundCap(g.N())
	}

	if (*ckptPath != "" || *resumeStr != "") && (*asyncMode || *engine == "node" || *trials > 1) {
		fmt.Fprintln(os.Stderr, "misrun: -checkpoint/-resume support the sim engine's single-run and -daemon paths only")
		return 2
	}
	var cp *mis.Checkpoint
	if *resumeStr != "" {
		var c mis.Checkpoint
		if err := snapshot.ReadFile(*resumeStr, snapshot.KindProcess, &c); err != nil {
			fmt.Fprintln(os.Stderr, "misrun:", err)
			return 1
		}
		if want := procName(*procKind); want != "" && want != c.Process {
			fmt.Fprintf(os.Stderr, "misrun: snapshot is a %s execution, -proc selects %s\n", c.Process, want)
			return 2
		}
		// A daemon-run snapshot continued with synchronous rounds would be a
		// mixed-semantics execution — the silent-wrong resume this layer
		// exists to rule out.
		if c.DaemonName != "" && *daemon == "" {
			fmt.Fprintf(os.Stderr, "misrun: snapshot is a daemon-scheduled run; resume it with -daemon %s\n", c.DaemonName)
			return 2
		}
		cp = &c
	}

	if *asyncMode {
		if *daemon != "" || *trials > 1 || *progress || *engine == "node" {
			fmt.Fprintln(os.Stderr, "misrun: -async does not combine with -daemon, -trials, -progress or -engine node")
			return 2
		}
		if *initKind != "random" {
			fmt.Fprintln(os.Stderr, "misrun: -async draws its own random initial states (-init random only)")
			return 2
		}
		return runAsync(g, *graphKind, *procKind, *seed, limit, *drift, *driftName, *gst)
	}

	if *engine == "node" {
		if *daemon != "" {
			fmt.Fprintln(os.Stderr, "misrun: -daemon requires the sim engine (the node runtime is synchronous by construction)")
			return 2
		}
		return runNodeEngine(g, *procKind, *seed, limit)
	}

	init, err := parseInit(*initKind)
	if err != nil {
		fmt.Fprintln(os.Stderr, "misrun:", err)
		return 2
	}
	if *daemon != "" {
		if *trials > 1 || *progress {
			fmt.Fprintln(os.Stderr, "misrun: -daemon does not combine with -trials or -progress")
			return 2
		}
		return runDaemon(g, *procKind, *daemon, init, *seed, *maxRounds, cp, *ckptPath, *ckptEvery)
	}
	if *trials > 1 {
		return runTrials(g, *procKind, init, *seed, *trials, limit, *workers)
	}
	var proc mis.Process
	if cp != nil {
		if proc, err = restoreProcess(g, cp); err != nil {
			fmt.Fprintln(os.Stderr, "misrun:", err)
			return 1
		}
	} else {
		k, kerr := experiment.ParseKind(*procKind)
		if kerr != nil {
			fmt.Fprintln(os.Stderr, "misrun:", kerr)
			return 2
		}
		proc = experiment.NewProcess(k, g, mis.WithSeed(*seed), mis.WithInit(init))
	}

	fmt.Printf("graph %s: n=%d m=%d maxdeg=%d\n", *graphKind, g.N(), g.M(), g.MaxDegree())
	if cp != nil {
		fmt.Printf("process %s (%d states), resumed from %s at round %d\n",
			proc.Name(), proc.States(), *resumeStr, proc.Round())
	} else {
		fmt.Printf("process %s (%d states), init %s, seed %d\n", proc.Name(), proc.States(), init, *seed)
	}

	for !proc.Stabilized() && proc.Round() < limit {
		if *progress {
			m := mis.Snapshot(proc)
			fmt.Printf("round %4d: black=%d active=%d stable-black=%d unstable=%d gray=%d\n",
				m.Round, m.Black, m.Active, m.StableBlack, m.Unstable, m.Gray)
		}
		proc.Step()
		if *ckptPath != "" && *ckptEvery > 0 && proc.Round()%*ckptEvery == 0 {
			if err := writeSnapshot(*ckptPath, proc, nil); err != nil {
				fmt.Fprintln(os.Stderr, "misrun:", err)
				return 1
			}
		}
	}
	if *ckptPath != "" {
		// Exit snapshot: resuming a capped run continues it; a stabilized
		// run's snapshot restores to the terminal configuration.
		if err := writeSnapshot(*ckptPath, proc, nil); err != nil {
			fmt.Fprintln(os.Stderr, "misrun:", err)
			return 1
		}
	}
	res := mis.Run(proc, limit)
	if !res.Stabilized {
		fmt.Printf("did NOT stabilize within %d rounds\n", limit)
		return 1
	}
	if err := verify.MIS(g, proc.Black); err != nil {
		fmt.Fprintln(os.Stderr, "misrun: INVALID RESULT:", err)
		return 1
	}
	misSize := 0
	for u := 0; u < g.N(); u++ {
		if proc.Black(u) {
			misSize++
		}
	}
	fmt.Printf("stabilized in %d rounds; MIS size %d; %d random bits (%.2f bits/vertex/round)\n",
		res.Rounds, misSize, res.RandomBits,
		float64(res.RandomBits)/float64(g.N())/maxf(1, float64(res.Rounds)))
	return 0
}

// runAsync executes one process on the asynchronous beeping medium and
// reports virtual rounds, virtual time, clock skew, and the observed slot
// lengths against the drift bound. Output is a pure function of the flags.
func runAsync(g *graph.Graph, graphKind, procKind string, seed uint64, limit int, rho float64, driftName string, gst int) int {
	d, err := async.DriftByName(driftName, rho, gst)
	if err != nil {
		fmt.Fprintln(os.Stderr, "misrun:", err)
		return 2
	}
	var (
		rounds int
		ok     bool
		black  func(int) bool
		bits   func() int64
		eng    *async.Engine
		model  string
	)
	k, kerr := experiment.ParseKind(procKind)
	if kerr != nil {
		fmt.Fprintln(os.Stderr, "misrun:", kerr)
		return 2
	}
	switch k {
	case experiment.KindTwoState:
		m := async.NewMIS(g, seed, d, nil)
		rounds, ok = m.Run(limit)
		black, bits, eng, model = m.Black, m.RandomBits, m.Engine(), "beeping-cd"
	case experiment.KindThreeState:
		m := async.NewThreeStateMIS(g, seed, d, nil)
		rounds, ok = m.Run(limit)
		black, bits, eng, model = m.Black, m.RandomBits, m.Engine(), "stone-age(2ch)"
	default:
		fmt.Fprintf(os.Stderr, "misrun: process %q does not run on the async medium (2state|3state)\n", procKind)
		return 2
	}
	fmt.Printf("graph %s: n=%d m=%d maxdeg=%d\n", graphKind, g.N(), g.M(), g.MaxDegree())
	gstNote := ""
	if driftName == "eventual-sync" {
		gstNote = fmt.Sprintf(", GST %d slots", gst)
	}
	fmt.Printf("async %s over %s: drift %s ρ=%.2f%s, base slot %d ticks, seed %d\n",
		procKind, model, d.Name(), d.Rho(), gstNote, int64(async.SlotTicks), seed)
	if !ok {
		fmt.Printf("did NOT stabilize within %d virtual rounds\n", limit)
		return 1
	}
	if err := verify.MIS(g, black); err != nil {
		fmt.Fprintln(os.Stderr, "misrun: INVALID RESULT:", err)
		return 1
	}
	misSize := 0
	for u := 0; u < g.N(); u++ {
		if black(u) {
			misSize++
		}
	}
	minLen, maxLen := eng.ObservedSlotLens()
	fmt.Printf("stabilized in %d virtual rounds (%.2f base slots of virtual time); MIS size %d; %d random bits\n",
		rounds, float64(eng.Now())/float64(async.SlotTicks), misSize, bits())
	fmt.Printf("clocks: max skew %d slots; slot lengths observed [%d, %d] within bound [%d, %d]\n",
		eng.MaxSkew(), minLen, maxLen, int64(async.SlotTicks), async.MaxSlotTicks(d.Rho()))
	return 0
}

// procName maps a -proc flag value to the checkpoint family name ("" for
// unknown values, which the construction paths reject themselves).
func procName(procKind string) string {
	k, err := experiment.ParseKind(procKind)
	if err != nil {
		return ""
	}
	return k.String()
}

// checkpointable is the snapshot surface of the sim-engine processes.
type checkpointable interface {
	Checkpoint() (*mis.Checkpoint, error)
}

// restoreProcess rebuilds the snapshot's process family on g.
func restoreProcess(g *graph.Graph, cp *mis.Checkpoint) (mis.Process, error) {
	switch cp.Process {
	case "2-state":
		return mis.RestoreTwoState(g, cp)
	case "3-state":
		return mis.RestoreThreeState(g, cp)
	case "3-color":
		return mis.RestoreThreeColor(g, cp)
	}
	return nil, fmt.Errorf("snapshot has unknown process family %q", cp.Process)
}

// writeSnapshot atomically writes the process's snapshot; a non-nil daemon
// contributes its name and (for stateful daemons) its schedule history.
func writeSnapshot(path string, p mis.Process, d sched.Daemon) error {
	c, err := p.(checkpointable).Checkpoint()
	if err != nil {
		return err
	}
	if d != nil {
		c.DaemonName = d.Name()
		if st, ok := d.(sched.Stateful); ok {
			if c.DaemonState, err = st.MarshalState(); err != nil {
				return err
			}
		}
	}
	return snapshot.WriteFile(path, snapshot.KindProcess, c)
}

// runDaemon executes one process under a daemon schedule and reports
// steps/moves to stabilization. A non-nil cp resumes a snapshotted daemon
// run — the scheduler stream, the step/move accounting, and a stateful
// daemon's schedule history all continue exactly; ckptPath/ckptEvery
// mirror the single-run snapshot flags with steps in place of rounds.
func runDaemon(g *graph.Graph, procKind, daemonName string, init mis.Init, seed uint64, maxSteps int, cp *mis.Checkpoint, ckptPath string, ckptEvery int) int {
	d, err := sched.DaemonByName(daemonName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "misrun:", err)
		return 2
	}
	var p mis.DaemonRunner
	if cp != nil {
		// Both directions of the mixed-semantics guard: a synchronous-run
		// snapshot must not be continued with daemon steps, and a daemon
		// snapshot must continue under the same daemon.
		if cp.DaemonName == "" {
			fmt.Fprintln(os.Stderr, "misrun: snapshot is a synchronous-round run; resume it without -daemon")
			return 2
		}
		if cp.DaemonName != d.Name() {
			fmt.Fprintf(os.Stderr, "misrun: snapshot was taken under the %s daemon, -daemon selects %s\n",
				cp.DaemonName, d.Name())
			return 2
		}
		proc, err := restoreProcess(g, cp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "misrun:", err)
			return 1
		}
		var ok bool
		if p, ok = proc.(mis.DaemonRunner); !ok {
			fmt.Fprintf(os.Stderr, "misrun: process %s does not support daemon scheduling\n", proc.Name())
			return 2
		}
		if cp.DaemonState != nil {
			st, ok := d.(sched.Stateful)
			if !ok {
				fmt.Fprintf(os.Stderr, "misrun: snapshot carries schedule state but daemon %s is stateless\n", d.Name())
				return 2
			}
			if err := st.UnmarshalState(cp.DaemonState); err != nil {
				fmt.Fprintln(os.Stderr, "misrun:", err)
				return 1
			}
		}
		fmt.Printf("process %s under %s daemon, resumed at step %d on n=%d m=%d\n",
			p.Name(), d.Name(), p.Steps(), g.N(), g.M())
	} else {
		k, kerr := experiment.ParseKind(procKind)
		if kerr != nil {
			fmt.Fprintln(os.Stderr, "misrun:", kerr)
			return 2
		}
		dr, ok := experiment.NewProcess(k, g, mis.WithSeed(seed), mis.WithInit(init)).(mis.DaemonRunner)
		if !ok {
			fmt.Fprintf(os.Stderr, "misrun: process %v does not support daemon scheduling (2state|3state)\n", k)
			return 2
		}
		p = dr
		fmt.Printf("process %s under %s daemon, init %s, seed %d on n=%d m=%d\n",
			p.Name(), d.Name(), init, seed, g.N(), g.M())
	}
	if maxSteps <= 0 {
		maxSteps = mis.DefaultDaemonStepCap(g.N())
	}
	// The cap is absolute (total steps including the resumed prefix), so an
	// interrupted-and-resumed run stops exactly where the uninterrupted one
	// would — the single-run path's round limit behaves the same way.
	for p.Steps() < maxSteps && !p.Stabilized() {
		if !p.DaemonStep(d) {
			break
		}
		if ckptPath != "" && ckptEvery > 0 && p.Steps()%ckptEvery == 0 {
			if err := writeSnapshot(ckptPath, p, d); err != nil {
				fmt.Fprintln(os.Stderr, "misrun:", err)
				return 1
			}
		}
	}
	if ckptPath != "" {
		if err := writeSnapshot(ckptPath, p, d); err != nil {
			fmt.Fprintln(os.Stderr, "misrun:", err)
			return 1
		}
	}
	steps, ok := p.Steps(), p.Stabilized()
	if !ok {
		fmt.Printf("did NOT stabilize within %d daemon steps\n", steps)
		return 1
	}
	if err := verify.MIS(g, p.Black); err != nil {
		fmt.Fprintln(os.Stderr, "misrun: INVALID RESULT:", err)
		return 1
	}
	misSize := 0
	for u := 0; u < g.N(); u++ {
		if p.Black(u) {
			misSize++
		}
	}
	fmt.Printf("stabilized after %d daemon steps (%d moves, %.2f moves/vertex); MIS size %d\n",
		steps, p.Moves(), float64(p.Moves())/float64(g.N()), misSize)
	return 0
}

// runTrials executes many seeded runs on a batch pool and prints
// distribution statistics, per-cell wall time, and — when trials fail —
// the exact seeds to replay.
func runTrials(g *graph.Graph, procKind string, init mis.Init, seed uint64, trials, limit, workers int) int {
	kind, err := experiment.ParseKind(procKind)
	if err != nil {
		fmt.Fprintln(os.Stderr, "misrun:", err)
		return 2
	}
	mkProc := func(rc *engine.RunContext, s uint64) mis.Process {
		return experiment.NewProcess(kind, g,
			mis.WithRunContext(rc), mis.WithSeed(s), mis.WithInit(init))
	}
	seeds := make([]uint64, trials)
	for i := range seeds {
		seeds[i] = seed + uint64(i)
	}
	rounds := stats.NewQuantileStream()
	var failedSeeds []uint64
	pool := batch.NewPool(workers)
	defer pool.Close()
	start := time.Now()
	pool.Submit([]batch.Shard{{
		Build: func() *graph.Graph { return g },
		Seeds: seeds,
		Run: func(rc *engine.RunContext, g *graph.Graph, _ int, s uint64) batch.Outcome {
			p := mkProc(rc, s)
			res := mis.Run(p, limit)
			if !res.Stabilized || verify.MIS(g, p.Black) != nil {
				return batch.Outcome{Failed: true}
			}
			return batch.Outcome{Rounds: res.Rounds}
		},
	}}, func(o batch.Outcome) {
		if o.Failed {
			failedSeeds = append(failedSeeds, o.Seed)
			return
		}
		rounds.Add(float64(o.Rounds))
	}).Wait()
	elapsed := time.Since(start)
	if rounds.N() == 0 {
		fmt.Printf("all %d trials failed to stabilize within %d rounds (seeds %v)\n",
			trials, limit, failedSeeds)
		return 1
	}
	s := rounds.Summary()
	fmt.Printf("%s on n=%d m=%d, %d trials (seeds %d..%d), init %s:\n",
		procKind, g.N(), g.M(), trials, seed, seed+uint64(trials)-1, init)
	fmt.Printf("  rounds: %s (95%% CI ±%.2f)\n", s, s.MeanCI95())
	fmt.Printf("  cell wall time: %v on %d workers (%.1f runs/s)\n",
		elapsed.Round(time.Millisecond), pool.Workers(),
		float64(trials)/elapsed.Seconds())
	if len(failedSeeds) > 0 {
		fmt.Printf("  %d/%d trials hit the round cap (failed seeds: %v)\n",
			len(failedSeeds), trials, failedSeeds)
		return 1
	}
	return 0
}

// buildGraph builds the -graph family from the flags. Out-of-range flags
// are errors, not generator panics: -n below 1 (below 3 for a cycle) for
// every generated family, -p outside [0, 1] for gnp, -d outside [0, n)
// for regular, and a clique or gnp whose expected 2m adjacency entries
// pass math.MaxInt32, the most a CSR holds (checked before allocating).
func buildGraph(kind, inPath string, n int, p float64, d int, seed uint64) (*graph.Graph, error) {
	rng := xrand.New(seed ^ 0x9e3779b97f4a7c15)
	pairs2 := float64(n) * float64(n-1)
	switch {
	case kind == "file": // the edge list's header sets the order
	case n < 1:
		return nil, fmt.Errorf("-n must be >= 1, got %d", n)
	case kind == "cycle" && n < 3:
		return nil, fmt.Errorf("-graph cycle needs -n >= 3, got %d", n)
	case kind == "gnp" && !(p >= 0 && p <= 1):
		return nil, fmt.Errorf("-p must be in [0, 1], got %v", p)
	case kind == "clique" && pairs2 > math.MaxInt32:
		return nil, fmt.Errorf("-graph clique -n %d has 2m = %.4g adjacency entries, above math.MaxInt32", n, pairs2)
	case kind == "gnp" && p*pairs2 > math.MaxInt32:
		return nil, fmt.Errorf("-graph gnp -n %d -p %v expects 2m = %.4g adjacency entries, above math.MaxInt32", n, p, p*pairs2)
	case kind == "regular" && (d < 0 || d >= n):
		return nil, fmt.Errorf("-d must be in [0, n) = [0, %d), got %d", n, d)
	}
	switch kind {
	case "file":
		if inPath == "" {
			return nil, fmt.Errorf("-graph file requires -in <path>")
		}
		f, err := os.Open(inPath)
		if err != nil {
			return nil, fmt.Errorf("open graph file: %w", err)
		}
		defer f.Close()
		return graphio.ReadEdgeList(f)
	case "gnp":
		return graph.Gnp(n, p, rng), nil
	case "clique":
		return graph.Complete(n), nil
	case "path":
		return graph.Path(n), nil
	case "cycle":
		return graph.Cycle(n), nil
	case "star":
		return graph.Star(n), nil
	case "tree":
		return graph.RandomTree(n, rng), nil
	case "grid":
		s := graph.ISqrt(n)
		return graph.Grid(s, s), nil
	case "cliques":
		s := graph.ISqrt(n)
		return graph.DisjointCliques(s, s), nil
	case "regular":
		if n*d%2 != 0 {
			n++
		}
		return graph.RandomRegular(n, d, rng), nil
	default:
		return nil, fmt.Errorf("unknown graph family %q", kind)
	}
}

func runNodeEngine(g *graph.Graph, procKind string, seed uint64, limit int) int {
	k, err := experiment.ParseKind(procKind)
	if err != nil {
		fmt.Fprintln(os.Stderr, "misrun:", err)
		return 2
	}
	switch k {
	case experiment.KindTwoState:
		m := newBeeping(g, seed)
		rounds, ok := m.Run(limit)
		return report(g, "beeping-cd", rounds, ok, m.Black)
	case experiment.KindThreeState:
		m := newStoneAge3S(g, seed)
		rounds, ok := m.Run(limit)
		return report(g, "stone-age(2ch)", rounds, ok, m.Black)
	default:
		m := newStoneAge3C(g, seed)
		rounds, ok := m.Run(limit)
		return report(g, "stone-age(12ch)", rounds, ok, m.Black)
	}
}

func report(g *graph.Graph, model string, rounds int, ok bool, black func(int) bool) int {
	if !ok {
		fmt.Printf("node engine (%s): did NOT stabilize in %d rounds\n", model, rounds)
		return 1
	}
	if err := verify.MIS(g, black); err != nil {
		fmt.Fprintln(os.Stderr, "misrun: INVALID RESULT:", err)
		return 1
	}
	fmt.Printf("node engine (%s): stabilized in %d rounds on n=%d\n", model, rounds, g.N())
	return 0
}

func parseInit(s string) (mis.Init, error) {
	for _, init := range mis.AllInits() {
		if init.String() == s {
			return init, nil
		}
	}
	return 0, fmt.Errorf("unknown init %q", s)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
