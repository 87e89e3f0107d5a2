package mis

import (
	"runtime"
	"testing"

	"ssmis/internal/engine"
	"ssmis/internal/graph"
	"ssmis/internal/xrand"
)

// A context-backed 3-color run must be bit-identical to a fresh-allocation
// run — including the switch sub-process, whose level arrays now lease
// from the context too.
func TestThreeColorRunContextBitIdentical(t *testing.T) {
	ctx := engine.NewRunContext()
	// Interleave sizes so stale clock buffers from a larger previous run
	// cannot leak into a smaller one.
	graphs := []*graph.Graph{
		graph.Gnp(300, 0.02, xrand.New(1)),
		graph.Gnp(60, 0.2, xrand.New(2)),
		graph.Gnp(300, 0.02, xrand.New(1)),
	}
	for trial, g := range graphs {
		seed := uint64(50 + trial)
		fresh := NewThreeColor(g, WithSeed(seed))
		leased := NewThreeColor(g, WithRunContext(ctx), WithSeed(seed))
		cap := 4 * DefaultRoundCap(g.N())
		fr := Run(fresh, cap)
		lr := Run(leased, cap)
		if fr != lr {
			t.Fatalf("trial %d: fresh %+v vs leased %+v", trial, fr, lr)
		}
		for u := 0; u < g.N(); u++ {
			if fresh.ColorOf(u) != leased.ColorOf(u) || fresh.SwitchLevel(u) != leased.SwitchLevel(u) {
				t.Fatalf("trial %d: vertex %d diverged (color %v/%v, level %d/%d)", trial, u,
					fresh.ColorOf(u), leased.ColorOf(u), fresh.SwitchLevel(u), leased.SwitchLevel(u))
			}
		}
	}
}

// The pool-backed 3-color clock closes the last per-run O(n) allocation of
// the 18-state process: with a warm run context, a full construct-and-run
// cycle must stay O(1) allocations (ROADMAP "pool-backed 3-color clock").
func TestThreeColorRunContextAmortizesAllocations(t *testing.T) {
	g := graph.Gnp(1024, 0.008, xrand.New(9))
	ctx := engine.NewRunContext()
	runOnce := func(seed uint64) {
		p := NewThreeColor(g, WithRunContext(ctx), WithSeed(seed))
		if res := Run(p, 4*DefaultRoundCap(g.N())); !res.Stabilized {
			t.Fatal("did not stabilize")
		}
	}
	runOnce(1) // warm the context to steady-state capacity
	avg := testing.AllocsPerRun(10, func() { runOnce(2) })
	// A fresh run pays O(n) allocations (vertex streams, state, bitsets,
	// clock level arrays); a context-backed run must not scale with n.
	if avg > 24 {
		t.Fatalf("context-backed 3-color run averaged %.1f allocations, want O(1)", avg)
	}

	// The allocation count cannot see one extra make of a per-vertex array,
	// so bound the bytes too: a warm run at n = 2^14 must allocate less than
	// n bytes, which no unleased per-vertex array (the clock's levels,
	// counts or flip scratch) fits under. ζ = 2^-3 keeps the run short; the
	// lease does not depend on it.
	big := graph.GnpAvgDegree(1<<14, 8, xrand.New(10))
	bigCtx := engine.NewRunContext()
	runBig := func(seed uint64) {
		p := NewThreeColor(big, WithRunContext(bigCtx), WithSeed(seed), WithSwitchZetaLog2(3))
		if res := Run(p, 4*DefaultRoundCap(big.N())); !res.Stabilized {
			t.Fatal("n = 2^14 run did not stabilize")
		}
	}
	runBig(1)
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		runBig(uint64(2 + i))
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun >= uint64(big.N()) {
		t.Fatalf("context-backed 3-color run at n = %d allocated %d bytes, want < n", big.N(), perRun)
	}
}
