// Command misfuzz differentially fuzzes the optimized simulators against
// the naive reference transcriptions of the paper's definitions: random
// graphs, random seeds, full executions compared state-for-state every
// round, plus an MIS validity check at stabilization. Each case also checks
// the asynchronous beeping medium: at drift ρ=1 it must replay the
// simulator coin-for-coin, and at a random ρ in (1, 3] its terminal
// configuration must still be a valid MIS with every slot inside the drift
// bound. Any divergence prints a reproducer (graph seed, process seed,
// round, vertex) and exits nonzero.
//
// Each case also attacks the checkpoint layer (internal/snapshot): a
// mid-run snapshot is encoded, decoded, and restored, and the resumed
// execution must match the uninterrupted one state-for-state to
// stabilization — including a daemon-scheduled resume, whose selection
// stream rides in the snapshot. Random truncations, byte corruptions, and
// a version-skewed header of the encoded bytes must all be REJECTED:
// resuming silently wrong is the checkpoint layer's one forbidden failure
// mode.
//
// Each case also checks the sequential rule's livelock proof
// (mis.Sequential.Run ends a deterministic synchronous run at its first
// repeated configuration) against a plain capped Step loop.
//
// Each case also attacks the declarative scenario codec
// (internal/scenario): a randomly built valid scenario must round-trip
// encode→decode with Plan equality and compile, while random mutations of
// the encoded JSON must decode to a typed error (never a panic, never a
// silent acceptance of a damaged axis).
//
// Usage:
//
//	misfuzz -iterations 2000        # bounded run (CI-friendly)
//	misfuzz -iterations 0           # run until interrupted
package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"os"

	"ssmis/internal/async"
	"ssmis/internal/graph"
	"ssmis/internal/mis"
	"ssmis/internal/sched"
	"ssmis/internal/snapshot"
	"ssmis/internal/verify"
	"ssmis/internal/xrand"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		iterations = flag.Int("iterations", 2000, "number of fuzz cases (0 = unbounded)")
		seed       = flag.Uint64("seed", 1, "fuzzer master seed")
		maxN       = flag.Int("max-n", 80, "maximum graph order per case")
		verbose    = flag.Bool("v", false, "print each case")
	)
	flag.Parse()

	master := xrand.New(*seed)
	cases := 0
	for it := 0; *iterations == 0 || it < *iterations; it++ {
		r := master.Split(uint64(it))
		caseSeed := r.Uint64()
		n := 2 + r.Intn(*maxN-1)
		p := r.Float64() * 0.5
		g := graph.Gnp(n, p, r)
		if *verbose {
			fmt.Printf("case %d: n=%d p=%.3f seed=%d\n", it, n, p, caseSeed)
		}
		if msg := fuzzTwoState(g, caseSeed); msg != "" {
			return report(it, n, p, caseSeed, "2-state", msg)
		}
		if msg := fuzzKernel(g, caseSeed); msg != "" {
			return report(it, n, p, caseSeed, "kernel", msg)
		}
		if msg := fuzzThreeState(g, caseSeed); msg != "" {
			return report(it, n, p, caseSeed, "3-state", msg)
		}
		if msg := fuzzThreeColor(g, caseSeed); msg != "" {
			return report(it, n, p, caseSeed, "3-color", msg)
		}
		if msg := fuzzAsync(g, caseSeed); msg != "" {
			return report(it, n, p, caseSeed, "async", msg)
		}
		if msg := fuzzSnapshot(g, caseSeed); msg != "" {
			return report(it, n, p, caseSeed, "snapshot", msg)
		}
		if msg := fuzzSequential(g, caseSeed); msg != "" {
			return report(it, n, p, caseSeed, "sequential", msg)
		}
		if msg := fuzzScenario(caseSeed); msg != "" {
			return report(it, n, p, caseSeed, "scenario", msg)
		}
		cases++
	}
	fmt.Printf("misfuzz: %d cases, no divergence\n", cases)
	return 0
}

func report(it, n int, p float64, seed uint64, proc, msg string) int {
	fmt.Fprintf(os.Stderr,
		"misfuzz: DIVERGENCE in %s process\n  reproducer: case=%d n=%d p=%.6f seed=%d\n  %s\n",
		proc, it, n, p, seed, msg)
	return 1
}

func fuzzTwoState(g *graph.Graph, seed uint64) string {
	opt := mis.NewTwoState(g, mis.WithSeed(seed))
	ref := mis.NewRefTwoState(g, seed, opt.BlackMask())
	limit := 4 * mis.DefaultRoundCap(g.N())
	for r := 0; r < limit && !opt.Stabilized(); r++ {
		opt.Step()
		ref.Step()
		for u := 0; u < g.N(); u++ {
			if opt.Black(u) != ref.Black(u) {
				return fmt.Sprintf("round %d vertex %d: opt=%v ref=%v", r+1, u, opt.Black(u), ref.Black(u))
			}
		}
		if opt.Stabilized() != ref.Stabilized() {
			return fmt.Sprintf("round %d: stabilization flags disagree", r+1)
		}
	}
	if !opt.Stabilized() {
		return fmt.Sprintf("no stabilization within %d rounds", limit)
	}
	if err := verify.MIS(g, opt.Black); err != nil {
		return "stabilized to non-MIS: " + err.Error()
	}
	return ""
}

// fuzzKernel differentially fuzzes the engine against the reference
// transcriptions of the paper's definitions (mis.NewRef*) for all three
// rules — 2-state, 3-state, and 3-color: same
// graph, same seed, compared state-for-state (full states: black0 vs
// black1, colors AND switch levels) every round, and a valid MIS at
// stabilization.
func fuzzKernel(g *graph.Graph, seed uint64) string {
	n := g.N()
	variants := []struct {
		name string
		mk   func(opts ...mis.Option) mis.Process
		// ref seeds the oracle from the process's initial configuration and
		// returns its round function and full-state accessor; state encodes
		// the process's full state the same way.
		ref   func(p mis.Process) (step func(), state func(u int) int)
		state func(p mis.Process, u int) int
		// limitMul scales the round cap (the 3-color switch needs slack).
		limitMul int
	}{
		{
			"2-state",
			func(opts ...mis.Option) mis.Process { return mis.NewTwoState(g, opts...) },
			func(p mis.Process) (func(), func(int) int) {
				ref := mis.NewRefTwoState(g, seed, p.(*mis.TwoState).BlackMask())
				return ref.Step, func(u int) int { return boolInt(ref.Black(u)) }
			},
			func(p mis.Process, u int) int { return boolInt(p.Black(u)) },
			4,
		},
		{
			"3-state",
			func(opts ...mis.Option) mis.Process { return mis.NewThreeState(g, opts...) },
			func(p mis.Process) (func(), func(int) int) {
				initial := make([]mis.TriState, n)
				for u := range initial {
					initial[u] = p.(*mis.ThreeState).State(u)
				}
				ref := mis.NewRefThreeState(g, seed, initial)
				return ref.Step, func(u int) int { return int(ref.State(u)) }
			},
			func(p mis.Process, u int) int { return int(p.(*mis.ThreeState).State(u)) },
			4,
		},
		{
			"3-color",
			func(opts ...mis.Option) mis.Process { return mis.NewThreeColor(g, opts...) },
			func(p mis.Process) (func(), func(int) int) {
				colors := make([]mis.Color, n)
				levels := make([]uint8, n)
				for u := range colors {
					colors[u] = p.(*mis.ThreeColor).ColorOf(u)
					levels[u] = p.(*mis.ThreeColor).SwitchLevel(u)
				}
				ref := mis.NewRefThreeColor(g, seed, colors, levels)
				return ref.Step, func(u int) int { return int(ref.ColorOf(u))<<8 | int(ref.Level(u)) }
			},
			func(p mis.Process, u int) int {
				tc := p.(*mis.ThreeColor)
				return int(tc.ColorOf(u))<<8 | int(tc.SwitchLevel(u))
			},
			8,
		},
	}
	for _, v := range variants {
		p := v.mk(mis.WithSeed(seed))
		refStep, refState := v.ref(p)
		limit := v.limitMul * mis.DefaultRoundCap(n)
		for rd := 0; rd < limit && !p.Stabilized(); rd++ {
			p.Step()
			refStep()
			for u := 0; u < n; u++ {
				if v.state(p, u) != refState(u) {
					return fmt.Sprintf("%s round %d vertex %d: engine=%#x reference=%#x",
						v.name, rd+1, u, v.state(p, u), refState(u))
				}
			}
		}
		if !p.Stabilized() {
			return fmt.Sprintf("%s: no stabilization within %d rounds", v.name, limit)
		}
		if err := verify.MIS(g, p.Black); err != nil {
			return v.name + " engine stabilized to non-MIS: " + err.Error()
		}
	}
	return ""
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func fuzzThreeState(g *graph.Graph, seed uint64) string {
	opt := mis.NewThreeState(g, mis.WithSeed(seed))
	initial := make([]mis.TriState, g.N())
	for u := range initial {
		initial[u] = opt.State(u)
	}
	ref := mis.NewRefThreeState(g, seed, initial)
	limit := 4 * mis.DefaultRoundCap(g.N())
	for r := 0; r < limit && !opt.Stabilized(); r++ {
		opt.Step()
		ref.Step()
		for u := 0; u < g.N(); u++ {
			if opt.State(u) != ref.State(u) {
				return fmt.Sprintf("round %d vertex %d: opt=%v ref=%v", r+1, u, opt.State(u), ref.State(u))
			}
		}
	}
	if !opt.Stabilized() {
		return fmt.Sprintf("no stabilization within %d rounds", limit)
	}
	if err := verify.MIS(g, opt.Black); err != nil {
		return "stabilized to non-MIS: " + err.Error()
	}
	return ""
}

func fuzzAsync(g *graph.Graph, seed uint64) string {
	limit := 4 * mis.DefaultRoundCap(g.N())

	// ρ=1: the async medium must replay the simulator coin-for-coin.
	sim := mis.NewTwoState(g, mis.WithSeed(seed))
	simRes := mis.Run(sim, limit)
	lock := async.NewMIS(g, seed, async.NewBounded(1), nil)
	rounds, ok := lock.Run(limit)
	if ok != simRes.Stabilized || rounds != simRes.Rounds {
		return fmt.Sprintf("ρ=1 run (%d, %v) diverges from simulator (%d, %v)",
			rounds, ok, simRes.Rounds, simRes.Stabilized)
	}
	for u := 0; u < g.N(); u++ {
		if sim.Black(u) != lock.Black(u) {
			return fmt.Sprintf("ρ=1 vertex %d: sim=%v async=%v", u, sim.Black(u), lock.Black(u))
		}
	}
	if sim.RandomBits() != lock.RandomBits() {
		return fmt.Sprintf("ρ=1 bit accounting: sim=%d async=%d", sim.RandomBits(), lock.RandomBits())
	}

	// Random drift in (1, 3]: terminal configurations stay valid MISes and
	// every slot respects the drift bound (the engine panics otherwise; the
	// observed extremes are re-checked here as a belt-and-braces property).
	r := xrand.New(seed ^ 0xA5A5A5A5A5A5A5A5)
	rho := 1 + r.Float64()*2
	drifted := async.NewThreeStateMIS(g, seed, async.NewBounded(rho), nil)
	if _, ok := drifted.Run(2 * limit); !ok {
		return fmt.Sprintf("ρ=%.4f 3-state did not stabilize within %d rounds", rho, 2*limit)
	}
	if err := verify.MIS(g, drifted.Black); err != nil {
		return fmt.Sprintf("ρ=%.4f terminal config: %v", rho, err)
	}
	min, max := drifted.Engine().ObservedSlotLens()
	if min < async.SlotTicks || max > async.MaxSlotTicks(rho) {
		return fmt.Sprintf("ρ=%.4f observed slot lengths [%d, %d] outside [%d, %d]",
			rho, min, max, int64(async.SlotTicks), async.MaxSlotTicks(rho))
	}
	return ""
}

func fuzzThreeColor(g *graph.Graph, seed uint64) string {
	opt := mis.NewThreeColor(g, mis.WithSeed(seed))
	colors := make([]mis.Color, g.N())
	levels := make([]uint8, g.N())
	for u := 0; u < g.N(); u++ {
		colors[u] = opt.ColorOf(u)
		levels[u] = opt.SwitchLevel(u)
	}
	ref := mis.NewRefThreeColor(g, seed, colors, levels)
	limit := 8 * mis.DefaultRoundCap(g.N())
	for r := 0; r < limit && !opt.Stabilized(); r++ {
		opt.Step()
		ref.Step()
		for u := 0; u < g.N(); u++ {
			if opt.ColorOf(u) != ref.ColorOf(u) {
				return fmt.Sprintf("round %d vertex %d: color opt=%v ref=%v", r+1, u, opt.ColorOf(u), ref.ColorOf(u))
			}
			if opt.SwitchLevel(u) != ref.Level(u) {
				return fmt.Sprintf("round %d vertex %d: level opt=%d ref=%d", r+1, u, opt.SwitchLevel(u), ref.Level(u))
			}
		}
	}
	if !opt.Stabilized() {
		return fmt.Sprintf("no stabilization within %d rounds", limit)
	}
	if err := verify.MIS(g, opt.Black); err != nil {
		return "stabilized to non-MIS: " + err.Error()
	}
	return ""
}

// fuzzSnapshot checkpoints executions mid-run through the full
// encode/decode path, resumes them, and requires the resumed runs to match
// the uninterrupted ones exactly; it then mutates the encoded bytes and
// requires every damaged variant to be rejected.
func fuzzSnapshot(g *graph.Graph, seed uint64) string {
	r := xrand.New(seed ^ 0x5bd1e9955bd1e995)
	limit := 8 * mis.DefaultRoundCap(g.N())

	// Synchronous 3-color resume (the process with the most snapshot
	// surface: colors, switch levels, clock bit accounting).
	full := mis.NewThreeColor(g, mis.WithSeed(seed))
	paused := mis.NewThreeColor(g, mis.WithSeed(seed))
	pauseAt := 1 + r.Intn(8)
	for i := 0; i < pauseAt; i++ {
		full.Step()
		paused.Step()
	}
	cp, err := paused.Checkpoint()
	if err != nil {
		return "checkpoint: " + err.Error()
	}
	blob, err := cp.Encode()
	if err != nil {
		return "encode: " + err.Error()
	}

	// Damage: random truncations and byte flips, plus a version-skewed
	// header with a valid checksum, must all be rejected.
	for k := 0; k < 6; k++ {
		if _, err := mis.DecodeCheckpoint(blob[:r.Intn(len(blob))]); err == nil {
			return "truncated snapshot accepted"
		}
		mut := append([]byte(nil), blob...)
		pos := r.Intn(len(mut))
		mut[pos] ^= byte(1 + r.Intn(255))
		if _, err := mis.DecodeCheckpoint(mut); err == nil {
			return fmt.Sprintf("corrupted snapshot (byte %d) accepted", pos)
		}
	}
	skew := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(skew[8:], snapshot.Version+1+uint32(r.Intn(7)))
	binary.LittleEndian.PutUint32(skew[len(skew)-4:], crc32.ChecksumIEEE(skew[:len(skew)-4]))
	if _, err := mis.DecodeCheckpoint(skew); !errors.Is(err, snapshot.ErrVersion) {
		return fmt.Sprintf("version-skewed snapshot: %v, want ErrVersion", err)
	}

	decoded, err := mis.DecodeCheckpoint(blob)
	if err != nil {
		return "decode: " + err.Error()
	}
	restored, err := mis.RestoreThreeColor(g, decoded)
	if err != nil {
		return "restore: " + err.Error()
	}
	for i := 0; i < limit && !full.Stabilized(); i++ {
		full.Step()
		restored.Step()
		for u := 0; u < g.N(); u++ {
			if full.ColorOf(u) != restored.ColorOf(u) || full.SwitchLevel(u) != restored.SwitchLevel(u) {
				return fmt.Sprintf("resume diverged at round %d vertex %d", full.Round(), u)
			}
		}
	}
	if !restored.Stabilized() || full.RandomBits() != restored.RandomBits() {
		return fmt.Sprintf("resume accounting: stabilized=%v bits %d vs %d",
			restored.Stabilized(), full.RandomBits(), restored.RandomBits())
	}

	// Daemon-scheduled 2-state resume: the scheduler stream rides in the
	// snapshot, so the resumed schedule must equal the uninterrupted one.
	d1, d2 := sched.CentralRandom{}, sched.CentralRandom{}
	dfull := mis.NewTwoState(g, mis.WithSeed(seed))
	dpaused := mis.NewTwoState(g, mis.WithSeed(seed))
	dPauseAt := 1 + r.Intn(3*g.N())
	for i := 0; i < dPauseAt; i++ {
		if !dfull.DaemonStep(d1) {
			break
		}
		dpaused.DaemonStep(d2)
	}
	dcp, err := dpaused.Checkpoint()
	if err != nil {
		return "daemon checkpoint: " + err.Error()
	}
	dblob, err := dcp.Encode()
	if err != nil {
		return "daemon encode: " + err.Error()
	}
	ddec, err := mis.DecodeCheckpoint(dblob)
	if err != nil {
		return "daemon decode: " + err.Error()
	}
	dres, err := mis.RestoreTwoState(g, ddec)
	if err != nil {
		return "daemon restore: " + err.Error()
	}
	stepCap := mis.DefaultDaemonStepCap(g.N())
	for dfull.Steps() < stepCap && !dfull.Stabilized() {
		if !dfull.DaemonStep(d1) {
			break
		}
		dres.DaemonStep(d2)
		for u := 0; u < g.N(); u++ {
			if dfull.Black(u) != dres.Black(u) {
				return fmt.Sprintf("daemon resume diverged at step %d vertex %d", dfull.Steps(), u)
			}
		}
	}
	if dfull.Stabilized() != dres.Stabilized() || dfull.Moves() != dres.Moves() {
		return fmt.Sprintf("daemon resume accounting: stabilized %v/%v moves %d/%d",
			dfull.Stabilized(), dres.Stabilized(), dfull.Moves(), dres.Moves())
	}
	return ""
}

// fuzzSequential runs the deterministic sequential rule from the seed's
// random mask under the synchronous and the central-adversarial daemon,
// once through Run(cap) and once through a capped Step loop. They must
// agree on stabilization, and on steps, moves and the mask when the run
// stabilizes; a proof (Run returning false before the cap) must mean the
// loop does not stabilize within the cap.
func fuzzSequential(g *graph.Graph, seed uint64) string {
	stepCap := 4 * g.N()
	for _, d := range []sched.Daemon{sched.Synchronous{}, sched.CentralAdversarial{}} {
		run := mis.NewSequential(g, d, seed, false, nil)
		loop := mis.NewSequential(g, d, seed, false, nil)
		steps, ok := run.Run(stepCap)
		for loop.Steps() < stepCap && loop.Step() {
		}
		loopOK := loop.Stabilized()
		if !ok && steps < stepCap && loopOK {
			return fmt.Sprintf("%s: Run proved a livelock at step %d, but the capped loop stabilized after %d steps",
				d.Name(), steps, loop.Steps())
		}
		if ok != loopOK {
			return fmt.Sprintf("%s: Run stabilized=%v after %d steps, capped loop %v after %d",
				d.Name(), ok, steps, loopOK, loop.Steps())
		}
		if !ok {
			continue
		}
		if run.Steps() != loop.Steps() || run.Moves() != loop.Moves() {
			return fmt.Sprintf("%s: Run took %d steps/%d moves, capped loop %d/%d",
				d.Name(), run.Steps(), run.Moves(), loop.Steps(), loop.Moves())
		}
		for u := 0; u < g.N(); u++ {
			if run.Black(u) != loop.Black(u) {
				return fmt.Sprintf("%s: vertex %d: Run=%v capped loop=%v", d.Name(), u, run.Black(u), loop.Black(u))
			}
		}
	}
	return ""
}
