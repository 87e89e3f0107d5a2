package async_test

// Property/fuzz layer for every runtime: any terminal configuration any
// engine reaches must be a valid MIS (verify.MIS), and asynchronous
// executions must never see a slot length outside the drift bound ρ. The
// corpus seeds keep `go test` running these as cheap property checks; `go
// test -fuzz` explores further.

import (
	"testing"

	"ssmis/internal/async"
	"ssmis/internal/beeping"
	"ssmis/internal/graph"
	"ssmis/internal/mis"
	"ssmis/internal/stoneage"
	"ssmis/internal/verify"
	"ssmis/internal/xrand"
)

// fuzzGraph derives a small random graph from fuzz-controlled raw values.
func fuzzGraph(seed uint64, nRaw, pRaw uint16) *graph.Graph {
	n := 2 + int(nRaw%47)
	p := float64(pRaw%500) / 1000
	return graph.Gnp(n, p, xrand.New(seed^0x5DEECE66D))
}

// fuzzRho maps a raw value onto the drift range [1, 3].
func fuzzRho(rhoRaw uint16) float64 {
	return 1 + float64(rhoRaw%2001)/1000
}

// checkDriftBound asserts the engine only observed slot lengths the bound
// permits (the engine additionally panics if a drift model ever leaves it).
func checkDriftBound(t *testing.T, e *async.Engine, rho float64) {
	t.Helper()
	min, max := e.ObservedSlotLens()
	if min < async.SlotTicks || max > async.MaxSlotTicks(rho) {
		t.Fatalf("observed slot lengths [%d, %d] outside drift bound [%d, %d] (ρ=%g)",
			min, max, int64(async.SlotTicks), async.MaxSlotTicks(rho), rho)
	}
}

func FuzzAsyncTwoStateMIS(f *testing.F) {
	f.Add(uint64(1), uint16(40), uint16(80), uint16(500))
	f.Add(uint64(99), uint16(12), uint16(400), uint16(0))
	f.Add(uint64(7), uint16(30), uint16(150), uint16(2000))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, pRaw, rhoRaw uint16) {
		g := fuzzGraph(seed, nRaw, pRaw)
		rho := fuzzRho(rhoRaw)
		m := async.NewMIS(g, seed, async.NewBounded(rho), nil)
		limit := 8 * mis.DefaultRoundCap(g.N())
		if _, ok := m.Run(limit); !ok {
			t.Fatalf("2-state did not stabilize within %d rounds (n=%d ρ=%g seed=%d)", limit, g.N(), rho, seed)
		}
		if err := verify.MIS(g, m.Black); err != nil {
			t.Fatalf("2-state terminal configuration invalid (n=%d ρ=%g seed=%d): %v", g.N(), rho, seed, err)
		}
		checkDriftBound(t, m.Engine(), rho)
	})
}

func FuzzAsyncThreeStateMIS(f *testing.F) {
	f.Add(uint64(2), uint16(40), uint16(80), uint16(700))
	f.Add(uint64(55), uint16(20), uint16(300), uint16(1500))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, pRaw, rhoRaw uint16) {
		g := fuzzGraph(seed, nRaw, pRaw)
		rho := fuzzRho(rhoRaw)
		m := async.NewThreeStateMIS(g, seed, async.NewBounded(rho), nil)
		limit := 8 * mis.DefaultRoundCap(g.N())
		if _, ok := m.Run(limit); !ok {
			t.Fatalf("3-state did not stabilize within %d rounds (n=%d ρ=%g seed=%d)", limit, g.N(), rho, seed)
		}
		if err := verify.MIS(g, m.Black); err != nil {
			t.Fatalf("3-state terminal configuration invalid (n=%d ρ=%g seed=%d): %v", g.N(), rho, seed, err)
		}
		checkDriftBound(t, m.Engine(), rho)
	})
}

// Every runtime — simulator, synchronous node runtimes, async at an
// arbitrary ρ — must terminate in a valid MIS on the same fuzzed instance.
func FuzzRuntimeTerminalMIS(f *testing.F) {
	f.Add(uint64(3), uint16(24), uint16(120), uint16(900))
	f.Add(uint64(41), uint16(33), uint16(60), uint16(300))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, pRaw, rhoRaw uint16) {
		g := fuzzGraph(seed, nRaw, pRaw)
		limit := 8 * mis.DefaultRoundCap(g.N())

		check := func(name string, rounds int, ok bool, black func(int) bool) {
			t.Helper()
			if !ok {
				t.Fatalf("%s did not stabilize within %d rounds (n=%d seed=%d)", name, limit, g.N(), seed)
			}
			_ = rounds
			if err := verify.MIS(g, black); err != nil {
				t.Fatalf("%s terminal configuration invalid (n=%d seed=%d): %v", name, g.N(), seed, err)
			}
		}

		for _, kind := range []struct {
			name string
			mk   func() mis.Process
		}{
			{"sim-2state", func() mis.Process { return mis.NewTwoState(g, mis.WithSeed(seed)) }},
			{"sim-3state", func() mis.Process { return mis.NewThreeState(g, mis.WithSeed(seed)) }},
			{"sim-3color", func() mis.Process { return mis.NewThreeColor(g, mis.WithSeed(seed)) }},
		} {
			p := kind.mk()
			res := mis.Run(p, limit)
			check(kind.name, res.Rounds, res.Stabilized, p.Black)
		}

		bee := beeping.NewMIS(g, seed, nil)
		r, ok := bee.Run(limit)
		check("beeping", r, ok, bee.Black)

		sa := stoneage.NewThreeStateMIS(g, seed, nil)
		r, ok = sa.Run(limit)
		check("stone-age", r, ok, sa.Black)

		rho := fuzzRho(rhoRaw)
		am := async.NewMIS(g, seed, async.NewAdversarial(rho), nil)
		r, ok = am.Run(limit)
		check("async-adversarial", r, ok, am.Black)
		checkDriftBound(t, am.Engine(), rho)
	})
}
