package engine

import (
	"fmt"
	"testing"

	"ssmis/internal/graph"
	"ssmis/internal/sched"
	"ssmis/internal/xrand"
)

// The bit-sliced engine must replay the scalar reference (refCore) state
// for state, round for round, on random graphs at every worker count.
func TestKernelMatchesScalarEngine(t *testing.T) {
	master := xrand.New(41)
	for trial := 0; trial < 20; trial++ {
		r := master.Split(uint64(trial))
		n := 2 + r.Intn(300)
		g := graph.Gnp(n, r.Float64()*0.15, r)
		for _, workers := range []int{1, 2, 8} {
			e := newTestCore(g, uint64(trial), Options{NoopWhenIdle: true, Workers: workers})
			lockstep(t, fmt.Sprintf("trial %d workers %d", trial, workers), e,
				newRefCore(g, uint64(trial), 0), 4*n+200)
		}
	}
}

// A biased coin draws one 64-bit Bernoulli sample per active vertex; the
// engine must replay the scalar reference (refCore) coin for coin.
func TestKernelMatchesScalarBiased(t *testing.T) {
	master := xrand.New(43)
	for trial := 0; trial < 6; trial++ {
		r := master.Split(uint64(trial))
		n := 2 + r.Intn(200)
		g := graph.Gnp(n, 0.08, r)
		bias := 0.2 + r.Float64()*0.6
		e := newTestCore(g, uint64(trial), Options{Bias: bias, NoopWhenIdle: true})
		lockstep(t, "biased", e, newRefCore(g, uint64(trial), bias), 8*n+400)
	}
}

// The complete-graph fast path (class totals, dirtyAll rescans) must agree
// with the reference, and so must the generic counter path forced on the
// same graph.
func TestKernelCompleteFastPath(t *testing.T) {
	g := graph.Complete(257) // odd size: partial tail word
	for seed := uint64(0); seed < 3; seed++ {
		for _, workers := range []int{1, 8} {
			e := newTestCore(g, seed, Options{NoopWhenIdle: true, Workers: workers})
			if !e.Complete() {
				t.Fatal("complete fast path not engaged")
			}
			lockstep(t, "complete", e, newRefCore(g, seed, 0), 4000)

			generic := newTestCore(g, seed, Options{NoopWhenIdle: true, Workers: workers})
			generic.DisableCompleteFastPath()
			lockstep(t, "complete-generic", generic, newRefCore(g, seed, 0), 4000)
		}
	}
}

// Daemon scheduling evaluates through the program's per-vertex transition
// and shares Step's commit and refresh; under the synchronous daemon it must
// replay the Step execution exactly.
func TestKernelDaemonSynchronousMatchesStep(t *testing.T) {
	master := xrand.New(47)
	for trial := 0; trial < 6; trial++ {
		r := master.Split(uint64(trial))
		n := 2 + r.Intn(150)
		g := graph.Gnp(n, 0.1, r)
		step := newTestCore(g, uint64(trial), Options{NoopWhenIdle: true})
		daemon := newTestCore(g, uint64(trial), Options{NoopWhenIdle: true})
		dRng := xrand.New(999)
		for i := 0; i < 4*n+200 && !step.Stabilized(); i++ {
			step.Step()
			daemon.DaemonStep(sched.Synchronous{}, dRng)
			if !statesEqual(step, daemon) {
				t.Fatalf("trial %d: daemon diverged at round %d", trial, step.Round())
			}
			if err := daemon.CheckIntegrity(); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		if step.Bits() != daemon.Bits() {
			t.Fatalf("trial %d: bits %d vs %d", trial, step.Bits(), daemon.Bits())
		}
	}
}

// A RunContext recycled across graphs of different sizes must lease lanes
// that carry no stale bits: every context-backed run replays the reference.
func TestKernelRunContextRecycling(t *testing.T) {
	ctx := NewRunContext()
	master := xrand.New(53)
	for trial := 0; trial < 8; trial++ {
		r := master.Split(uint64(trial))
		n := 2 + r.Intn(250) // sizes shrink and grow across trials
		g := graph.Gnp(n, 0.1, r)
		e := newTestCore(g, uint64(trial), Options{NoopWhenIdle: true, Ctx: ctx})
		lockstep(t, "ctx", e, newRefCore(g, uint64(trial), 0), 4*n+200)
	}
}

// Rebuild after external state corruption must re-derive the lanes from the
// mutated vector: the execution continues exactly as the reference does
// from the same corrupted configuration, coverage re-stamped at the
// corruption round.
func TestKernelRebuildAfterCorruption(t *testing.T) {
	master := xrand.New(59)
	r := master.Split(0)
	g := graph.Gnp(150, 0.1, r)
	e := newTestCore(g, 7, Options{NoopWhenIdle: true})
	ref := newRefCore(g, 7, 0)
	for i := 0; i < 5; i++ {
		e.Step()
		ref.Step()
	}
	// Flip a handful of states identically on both.
	mut := master.Split(1)
	for i := 0; i < 10; i++ {
		u := mut.Intn(g.N())
		ns := tWhite + uint8(mut.Intn(2))
		e.States()[u] = ns
		ref.state[u] = ns
	}
	e.Rebuild()
	ref.restamp()
	if err := e.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	lockstep(t, "post-corruption", e, ref, 2000)
}
