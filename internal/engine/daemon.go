package engine

// Daemon-scheduled execution: the paper motivates randomizing the
// sequential self-stabilizing MIS rule by the daemon (scheduler) model —
// under the synchronous daemon the deterministic rule livelocks, and the
// randomized rule under the synchronous daemon IS the 2-state process. This
// file closes the loop in the other direction: any engine rule can run
// under any internal/sched daemon. A step exposes the privileged vertices
// to the daemon, which selects the subset that moves; selected vertices
// evaluate the rule against the frozen pre-step configuration and commit
// simultaneously.
//
// Privileged means "touched and outside the stable core I_t": a stable
// black vertex's move only re-randomizes it among its black states, so it
// can never make progress, and an adversarial central daemon would
// otherwise select the lowest such vertex forever. With I_t excluded, an
// empty privileged set coincides with stabilization for every rule.
//
// Selection coins come from a dedicated scheduler stream, while moves keep
// drawing from the per-vertex streams — so for the 2-state process (whose
// touched set never meets I_t) the synchronous daemon replays exactly the
// same execution as Step, coin for coin.
//
// Each selected vertex moves through the program's per-vertex transition
// (kernel.Program.Next) — the same Spec tables EvalWords evaluates a word at
// a time — and the moves then share Step's commit and refresh. Rules with a
// mid-round sub-process (the 3-color switch) are inherently synchronous and
// do not support daemon scheduling.

import (
	"math/bits"
	"sort"

	"ssmis/internal/sched"
	"ssmis/internal/xrand"
)

// Steps returns the number of daemon steps executed.
func (e *Core) Steps() int { return e.steps }

// Moves returns the total number of vertex moves under daemon scheduling.
func (e *Core) Moves() int { return e.moves }

// SetDaemonAccounting overwrites the daemon step/move counters (checkpoint
// restore of a daemon-scheduled execution).
func (e *Core) SetDaemonAccounting(steps, moves int) {
	e.steps = steps
	e.moves = moves
}

// DaemonStep lets d select among the privileged (touched) vertices and moves
// the selected ones once. rng drives the daemon's own selection randomness.
// It returns false — without consuming schedule randomness — when no vertex
// is privileged. Each daemon step advances the round counter: a step is a
// time step, and under sched.Synchronous the execution coincides with Step
// for rules whose touched set never meets the stable core (the 2-state
// rule); rules whose touched set does (3-state: stable blacks keep
// re-randomizing under Step) draw fewer coins here, since I_t is excluded
// from the privileged set.
func (e *Core) DaemonStep(d sched.Daemon, rng *xrand.Rand) bool {
	if e.sub != nil {
		panic("engine: the rule has a synchronous sub-process; daemon scheduling unsupported")
	}
	// The privileged set is presented to the daemon in ORIGINAL vertex ids:
	// under a locality relabeling (Options.Order) the worklist iterates in
	// relabeled order, so the collected ids are mapped back and re-sorted —
	// the daemon sees the exact set, order, and ids of the identity-ordered
	// run, which keeps its selection coins and history bit-identical.
	ord := e.opts.Order
	e.priv = e.priv[:0]
	e.work.ForEachWord(func(base int, w uint64) {
		for ; w != 0; w &= w - 1 {
			if u := base + bits.TrailingZeros64(w); !e.inI.Contains(u) {
				e.priv = append(e.priv, ord.OldID(u))
			}
		}
	})
	if len(e.priv) == 0 {
		return false
	}
	if ord != nil {
		sort.Ints(e.priv)
	}
	selected := d.Select(e.priv, rng)
	e.changes = e.changes[:0]
	for _, su := range selected {
		u := ord.NewID(su)
		s := e.state[u]
		ns, drawn := e.prog.Next(s, e.countA(u) > 0, e.countB(u) > 0, false, e.rngs[u], e.opts.Bias)
		e.bits += drawn
		e.moves++
		if ns != s {
			e.changes = append(e.changes, change{U: int32(u), S: ns})
		}
	}
	e.commit(e.changes)
	e.round++
	e.steps++
	e.refresh()
	e.syncScratch()
	return true
}

// DaemonRun executes up to maxSteps further daemon steps (relative to the
// current position, so repeated calls extend a capped run) until
// stabilization (coverage); it reports the total steps taken and whether
// the execution stabilized.
func (e *Core) DaemonRun(d sched.Daemon, rng *xrand.Rand, maxSteps int) (steps int, stabilized bool) {
	start := e.steps
	for e.steps-start < maxSteps && !e.Stabilized() {
		if !e.DaemonStep(d, rng) {
			break
		}
	}
	return e.steps, e.Stabilized()
}
