package mis

// Daemon-scheduled execution of the randomized processes. The paper
// presents the 2-state process as the randomized synchronous
// parallelization of the sequential self-stabilizing MIS rule of [28, 20],
// whose correctness is analyzed under daemon (scheduler) models; this file
// runs the paper's processes under those daemons directly (sequential.go
// runs that rule itself, on the same daemon path). A daemon step
// exposes the privileged vertices — those whose transition can fire — to an
// internal/sched.Daemon, which selects the subset that moves.
//
// Selection randomness comes from a dedicated scheduler stream (master
// stream index n+2, next to the initialization stream), while moves keep
// drawing from the per-vertex streams. Under sched.Synchronous the 2-state
// execution is therefore coin-for-coin identical to the synchronous Step
// loop. The 3-color process's switch sub-process is inherently synchronous,
// so daemon scheduling is exposed for the 2- and 3-state processes only.
//
// Stabilization guarantees differ by process. The randomized 2-state rule
// stabilizes with probability 1 under ANY daemon, including the adversarial
// central one — the [28, 31] transformation the paper cites. The 3-state
// rule does not: its black0→white demotion is reactive (it fires only when
// a neighbor is black1), so an unfair daemon can select one vertex of a
// black–black conflict forever while starving the one that would demote —
// two adjacent black0 vertices livelock under sched.CentralAdversarial.
// Daemons that are fair in probability (central-random,
// distributed-random) or deterministically fair (round-robin, synchronous)
// stabilize it almost surely. Experiment E18 measures both effects.

import (
	"ssmis/internal/engine"
	"ssmis/internal/sched"
	"ssmis/internal/xrand"
)

// DaemonRunner is the daemon-schedulable process surface, implemented by
// TwoState and ThreeState.
type DaemonRunner interface {
	Process
	DaemonStep(d sched.Daemon) bool
	DaemonRun(d sched.Daemon, maxSteps int) (steps int, stabilized bool)
	Moves() int
	Steps() int
}

var (
	_ DaemonRunner = (*TwoState)(nil)
	_ DaemonRunner = (*ThreeState)(nil)
)

// Daemon-scheduled executions are resumable through Checkpoint/Restore: the
// checkpoint carries the scheduler stream's exact state (plus the step/move
// accounting), so a restored process continues the schedule coin-for-coin —
// the daemon selections after restore equal the selections an uninterrupted
// run would have drawn. Checkpoints taken before a process's first daemon
// step carry no stream; restoring one derives the stream lazily as usual.

// daemonStream derives the scheduler's selection stream from the master
// seed. Split streams are pure functions of (seed, index), so the stream is
// independent of how many coins the process has already drawn.
func daemonStream(n int, seed uint64) *xrand.Rand {
	return xrand.New(seed).Split(uint64(n) + 2)
}

// DefaultDaemonStepCap returns a generous step cap for daemon-scheduled
// runs: central daemons move one vertex per step, so caps must scale with
// n·polylog(n) rather than polylog(n).
func DefaultDaemonStepCap(n int) int {
	return 64 * DefaultRoundCap(n) * max(n/64, 1)
}

// daemonStep is the shared wrapper plumbing: it lazily derives the
// scheduler stream on first use (so purely synchronous runs never pay for
// it) and delegates to the engine.
func daemonStep(core *engine.Core, rng **xrand.Rand, seed uint64, d sched.Daemon) bool {
	if *rng == nil {
		*rng = daemonStream(core.Graph().N(), seed)
	}
	return core.DaemonStep(d, *rng)
}

// daemonRun mirrors daemonStep for full runs; maxSteps <= 0 selects
// DefaultDaemonStepCap.
func daemonRun(core *engine.Core, rng **xrand.Rand, seed uint64, d sched.Daemon, maxSteps int) (int, bool) {
	if maxSteps <= 0 {
		maxSteps = DefaultDaemonStepCap(core.Graph().N())
	}
	if *rng == nil {
		*rng = daemonStream(core.Graph().N(), seed)
	}
	return core.DaemonRun(d, *rng, maxSteps)
}

// DaemonStep lets d select among the privileged (active) vertices and moves
// the selected ones once; it returns false when no vertex is privileged
// (the process has stabilized). Mixing DaemonStep and Step on one process
// is legal — both advance the same execution state.
func (p *TwoState) DaemonStep(d sched.Daemon) bool {
	return daemonStep(p.core, &p.schedRng, p.opts.seed, d)
}

// DaemonRun executes up to maxSteps further daemon steps (0 selects
// DefaultDaemonStepCap) until stabilization; it reports the total steps
// taken and whether the process stabilized to an MIS.
func (p *TwoState) DaemonRun(d sched.Daemon, maxSteps int) (steps int, stabilized bool) {
	return daemonRun(p.core, &p.schedRng, p.opts.seed, d, maxSteps)
}

// Moves returns the total number of vertex moves under daemon scheduling.
func (p *TwoState) Moves() int { return p.core.Moves() }

// Steps returns the number of daemon steps executed.
func (p *TwoState) Steps() int { return p.core.Steps() }

// DaemonStep lets d select among the privileged vertices — the active ones
// plus black0 vertices due for demotion, excluding the stable core — and
// moves the selected ones once; it returns false when no vertex is
// privileged. See the package comment for the fairness caveat: the 3-state
// rule can livelock under sched.CentralAdversarial.
func (p *ThreeState) DaemonStep(d sched.Daemon) bool {
	return daemonStep(p.core, &p.schedRng, p.opts.seed, d)
}

// DaemonRun executes up to maxSteps further daemon steps (0 selects
// DefaultDaemonStepCap) until stabilization; it reports the total steps
// taken and whether the process stabilized to an MIS.
func (p *ThreeState) DaemonRun(d sched.Daemon, maxSteps int) (steps int, stabilized bool) {
	return daemonRun(p.core, &p.schedRng, p.opts.seed, d, maxSteps)
}

// Moves returns the total number of vertex moves under daemon scheduling.
func (p *ThreeState) Moves() int { return p.core.Moves() }

// Steps returns the number of daemon steps executed.
func (p *ThreeState) Steps() int { return p.core.Steps() }
