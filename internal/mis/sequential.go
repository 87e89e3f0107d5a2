package mis

import (
	"fmt"
	"slices"

	"ssmis/internal/engine"
	"ssmis/internal/engine/kernel"
	"ssmis/internal/graph"
	"ssmis/internal/sched"
	"ssmis/internal/xrand"
)

// seqDetProg is the deterministic sequential rule of [28, 20] as a coin-free
// Spec beside twoStateProg: the same codes and the same privileged vertices
// (touched is the 2-state activity ¬(black ⊕ hasBlackNbr)), but no vertex
// is active, so a moving vertex takes its forced transition to the
// consistent state, white→black and black→white, and draws nothing. Its
// randomized variant ([28, 31]) is twoStateProg itself.
var seqDetProg = kernel.MustCompile(kernel.Spec{
	StateOf: [4]uint8{twoWhite, twoBlack, 0, 0},
	Touched: kernel.TruthTable(func(code int, a, _ bool) bool {
		return (code&1 == 1) == a
	}),
	ForcedOn:  [4]uint8{1, 0, 0, 0},
	ForcedOff: [4]uint8{1, 0, 0, 0},
})

// Sequential is the sequential self-stabilizing MIS rule of Shukla et al.
// and Hedetniemi et al. ([28, 20] in the paper) under a daemon — the rule
// the paper's 2-state process parallelizes. A vertex is privileged when its
// state is inconsistent: black with a black neighbor, or white with no
// black neighbor. Each step the daemon selects privileged vertices, which
// read the current configuration and move together: deterministically to
// the consistent state (seqDetProg), or, randomized, to a uniformly random
// state (twoStateProg). Both rules run on engine.Core.DaemonStep, so a step
// costs O(⌈n/64⌉ + |privileged| + Σ deg of the flipped vertices), and one
// stream drives the whole run (NewSequential says why).
//
//   - Under a central daemon the deterministic rule stabilizes after every
//     vertex moves at most twice (≤ 2n moves).
//   - Under the synchronous daemon the deterministic rule can livelock (two
//     adjacent white vertices flip to black and back forever) — the reason
//     the parallel process must randomize. That rule under that daemon is a
//     map on the black mask whose fixed points are the MISes, and a
//     symmetric threshold network updated in parallel ends in a fixed point
//     or a 2-cycle (Goles and Olivos, 1980), so Run ends such a run at its
//     first repeated mask instead of at the step cap.
//   - Randomizing the moves restores stabilization with probability 1 under
//     any daemon ([28], [31]), and under the synchronous daemon the
//     randomized rule is exactly the paper's 2-state process.
type Sequential struct {
	core       *engine.Core
	daemon     sched.Daemon
	rng        *xrand.Rand
	randomized bool
}

// NewSequential creates the sequential rule on g under daemon d with master
// seed seed; randomized selects the [28, 31] rule. black is the initial
// (adversarial) mask, copied; nil draws a uniformly random one, and any
// other length than g.N() panics.
//
// One stream, xrand.New(seed), does three jobs: it draws the initial mask,
// it fills every vertex's stream slot, and it is the selection stream
// passed to DaemonStep. This is the one place where a vertex does not own
// its stream. A daemon step draws its selection and then the selected
// vertices' moves in selection order, so the shared stream replays the
// draw order of the sequential rule as E10 and E18 have always measured it.
// Their tables are pinned byte for byte (TestSequentialTablesPinned, and
// the sweep digests in misbench/expected.json); per-vertex streams would
// give equally valid but different executions and move those tables.
func NewSequential(g *graph.Graph, d sched.Daemon, seed uint64, randomized bool, black []bool) *Sequential {
	n := g.N()
	rng := xrand.New(seed)
	if black == nil {
		black = make([]bool, n)
		for u := range black {
			black[u] = rng.Bit()
		}
	} else if len(black) != n {
		panic(fmt.Sprintf("mis: initial mask length %d != n %d", len(black), n))
	}
	state := make([]uint8, n)
	rngs := make([]*xrand.Rand, n)
	for u, b := range black {
		state[u] = twoWhite
		if b {
			state[u] = twoBlack
		}
		rngs[u] = rng
	}
	prog := seqDetProg
	if randomized {
		prog = twoStateProg
	}
	return &Sequential{
		core:       engine.New(g, prog, nil, state, rngs, engine.Options{Bias: 0.5}),
		daemon:     d,
		rng:        rng,
		randomized: randomized,
	}
}

// Stabilized reports whether no vertex is privileged (the black set is then
// an MIS).
func (s *Sequential) Stabilized() bool { return s.core.Stabilized() }

// Black reports the color of u.
func (s *Sequential) Black(u int) bool { return s.core.State(u) == twoBlack }

// Moves returns the total number of vertex moves executed.
func (s *Sequential) Moves() int { return s.core.Moves() }

// Steps returns the number of daemon steps executed.
func (s *Sequential) Steps() int { return s.core.Steps() }

// Step lets the daemon select and move privileged vertices once. It returns
// false when no vertex is privileged (stabilized).
func (s *Sequential) Step() bool { return s.core.DaemonStep(s.daemon, s.rng) }

// Run executes daemon steps until stabilization or maxSteps; it reports the
// steps taken and whether the rule stabilized.
//
// Run may return false before maxSteps: with the deterministic rule under
// the Synchronous daemon it stops at the first repeated black mask. There
// the next mask is a function of the current one alone (x′(u) = [no
// neighbor of u is black]), and every mask the run stepped from had a
// privileged vertex, so a repeat proves a cycle that never stabilizes.
// Brent's cycle check (Brent, 1980) finds it with one saved mask: each step
// compares the mask with the saved copy, which is replaced whenever the
// steps since the last save reach the current power of two, and the power
// doubles. No other run needs or admits the proof: central daemons
// stabilize the deterministic rule within 2n moves, and every other daemon
// or the randomized rule draws coins or depends on schedule history, so
// those runs go to stabilization or maxSteps.
func (s *Sequential) Run(maxSteps int) (steps int, stabilized bool) {
	var saved []uint8
	if _, sync := s.daemon.(sched.Synchronous); sync && !s.randomized {
		saved = slices.Clone(s.core.States())
	}
	power, lam := 1, 0
	for s.Steps() < maxSteps {
		if !s.Step() {
			return s.Steps(), true
		}
		if saved == nil {
			continue
		}
		if slices.Equal(saved, s.core.States()) {
			return s.Steps(), false
		}
		if lam++; lam == power {
			copy(saved, s.core.States())
			power, lam = 2*power, 0
		}
	}
	return s.Steps(), s.Stabilized()
}
