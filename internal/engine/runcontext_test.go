package engine

import (
	"testing"

	"ssmis/internal/graph"
	"ssmis/internal/xrand"
)

// run advances e to stabilization (bounded) and returns (rounds, bits, states copy).
func runToStable(t *testing.T, e *Core) (int, int64, []uint8) {
	t.Helper()
	for i := 0; !e.Stabilized() && i < 1<<20; i++ {
		e.Step()
	}
	if !e.Stabilized() {
		t.Fatal("engine did not stabilize")
	}
	return e.Round(), e.Bits(), append([]uint8(nil), e.States()...)
}

// A context-backed execution must be bit-identical to a fresh-allocation
// execution — across back-to-back runs of different sizes and densities on
// ONE context, so stale scratch from a larger previous run cannot leak.
func TestRunContextBitIdentical(t *testing.T) {
	ctx := NewRunContext()
	master := xrand.New(99)
	// Deliberately interleave sizes (large, small, large) and include a
	// complete graph so the fast path runs on recycled scratch too.
	graphs := []*graph.Graph{
		graph.Gnp(300, 0.02, master.Split(1)),
		graph.Complete(64),
		graph.Gnp(50, 0.2, master.Split(2)),
		graph.Gnp(300, 0.02, master.Split(1)),
		graph.Path(17),
	}
	for trial, g := range graphs {
		seed := uint64(1000 + trial)
		fresh := newTestCore(g, seed, Options{NoopWhenIdle: true})
		fr, fb, fs := runToStable(t, fresh)

		leased := newTestCore(g, seed, Options{NoopWhenIdle: true, Ctx: ctx})
		lr, lb, ls := runToStable(t, leased)
		if fr != lr || fb != lb {
			t.Fatalf("trial %d: fresh (rounds=%d bits=%d) vs leased (rounds=%d bits=%d)",
				trial, fr, fb, lr, lb)
		}
		for u := range fs {
			if fs[u] != ls[u] {
				t.Fatalf("trial %d: state of %d differs", trial, u)
			}
		}
		if err := leased.CheckIntegrity(); err != nil {
			t.Fatalf("trial %d: leased integrity: %v", trial, err)
		}
	}
}

// Reusing a context across many runs must not allocate per run beyond the
// engine core struct itself (the amortization claim behind internal/batch).
func TestRunContextAmortizesAllocations(t *testing.T) {
	g := graph.Gnp(400, 0.02, xrand.New(5))
	ctx := NewRunContext()
	// Warm the context to its steady-state capacity.
	runToStable(t, newTestCore(g, 1, Options{NoopWhenIdle: true, Ctx: ctx}))
	avg := testing.AllocsPerRun(20, func() {
		e := newTestCore(g, 2, Options{NoopWhenIdle: true, Ctx: ctx})
		for i := 0; !e.Stabilized() && i < 1<<20; i++ {
			e.Step()
		}
	})
	// A fresh-allocation run costs O(n) allocations (one per vertex stream
	// alone); a context-backed run must stay O(1).
	if avg > 16 {
		t.Fatalf("context-backed run averaged %.1f allocations, want O(1)", avg)
	}
}

// The delta-buffered parallel commit leases its per-worker hub accumulators
// from the context: across back-to-back parallel runs on the same context
// the dense delta arrays must be recycled, not reallocated, and re-leasing
// at steady state must not allocate at all.
func TestRunContextReusesHubDeltaBuffers(t *testing.T) {
	g := graph.CompleteBipartite(80, 100) // every degree >= HubDegreeMin: hubLen = 180
	ctx := NewRunContext()
	opts := Options{NoopWhenIdle: true, Workers: 4, Ctx: ctx}
	runToStable(t, newTestCore(g, 1, opts))
	if len(ctx.hubDeltas) != opts.Workers {
		t.Fatalf("context holds %d hub delta buffers, want %d", len(ctx.hubDeltas), opts.Workers)
	}
	before := make([]*int32, len(ctx.hubDeltas))
	for w := range ctx.hubDeltas {
		if cap(ctx.hubDeltas[w].dA) < 180 {
			t.Fatalf("worker %d hub delta buffer sized %d, want >= 180", w, cap(ctx.hubDeltas[w].dA))
		}
		before[w] = &ctx.hubDeltas[w].dA[0]
	}
	runToStable(t, newTestCore(g, 2, opts))
	for w := range before {
		if before[w] != &ctx.hubDeltas[w].dA[0] {
			t.Fatalf("worker %d hub delta buffer reallocated across runs", w)
		}
	}
	// Steady-state re-lease: sizing the accumulators for the warm plane is
	// allocation-free (the per-round path of the parallel commit).
	e := newTestCore(g, 3, opts)
	runToStable(t, e)
	if avg := testing.AllocsPerRun(50, func() { e.hubDeltaBufsFor(opts.Workers, 180) }); avg != 0 {
		t.Fatalf("hub delta lease averaged %.1f allocations at steady state, want 0", avg)
	}
}
