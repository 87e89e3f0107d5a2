package async_test

import (
	"testing"

	"ssmis/internal/async"
	"ssmis/internal/beeping"
	"ssmis/internal/graph"
	"ssmis/internal/mis"
	"ssmis/internal/noderun"
	"ssmis/internal/verify"
	"ssmis/internal/xrand"
)

// At ρ = 1 every clock runs at the base rate and the asynchronous medium
// must collapse to the synchronous noderun execution coin-for-coin: same
// stabilization round, same colors, same random-bit accounting.
func TestRhoOneCollapsesToSynchronous(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		g := graph.Gnp(48, 0.08, xrand.New(seed))
		bee := beeping.NewMIS(g, seed, nil)
		a := async.NewMIS(g, seed, async.NewBounded(1), nil)
		beeRounds, beeOK := bee.Run(5000)
		aRounds, aOK := a.Run(5000)
		if beeOK != aOK || beeRounds != aRounds {
			t.Fatalf("seed %d: sync (%d, %v) vs async ρ=1 (%d, %v)", seed, beeRounds, beeOK, aRounds, aOK)
		}
		for u := 0; u < g.N(); u++ {
			if bee.Black(u) != a.Black(u) {
				t.Fatalf("seed %d: colors diverge at %d", seed, u)
			}
		}
		if bee.RandomBits() != a.RandomBits() {
			t.Fatalf("seed %d: bits %d vs %d", seed, bee.RandomBits(), a.RandomBits())
		}
		if sk := a.Engine().MaxSkew(); sk != 0 {
			t.Fatalf("seed %d: lockstep execution reported skew %d", seed, sk)
		}
	}
}

// Drifting executions must still stabilize to valid MISes — the paper's
// weak-communication claim under asynchrony — and the engine must observe
// only slot lengths within the drift bound.
func TestDriftedRunsStabilizeToMIS(t *testing.T) {
	for _, rho := range []float64{1.5, 2, 3} {
		for seed := uint64(1); seed <= 3; seed++ {
			g := graph.Gnp(48, 0.08, xrand.New(seed+10))
			limit := 8 * mis.DefaultRoundCap(g.N())

			a2 := async.NewMIS(g, seed, async.NewBounded(rho), nil)
			if _, ok := a2.Run(limit); !ok {
				t.Fatalf("ρ=%g seed %d: 2-state did not stabilize in %d rounds", rho, seed, limit)
			}
			if err := verify.MIS(g, a2.Black); err != nil {
				t.Fatalf("ρ=%g seed %d: 2-state terminal config: %v", rho, seed, err)
			}

			a3 := async.NewThreeStateMIS(g, seed, async.NewBounded(rho), nil)
			if _, ok := a3.Run(limit); !ok {
				t.Fatalf("ρ=%g seed %d: 3-state did not stabilize in %d rounds", rho, seed, limit)
			}
			if err := verify.MIS(g, a3.Black); err != nil {
				t.Fatalf("ρ=%g seed %d: 3-state terminal config: %v", rho, seed, err)
			}

			for _, e := range []*async.Engine{a2.Engine(), a3.Engine()} {
				min, max := e.ObservedSlotLens()
				if min < async.SlotTicks || max > async.MaxSlotTicks(rho) {
					t.Fatalf("ρ=%g seed %d: observed slot lengths [%d, %d] outside [%d, %d]",
						rho, seed, min, max, int64(async.SlotTicks), async.MaxSlotTicks(rho))
				}
			}
		}
	}
}

// Under drift, observer stability is not automatically absorbing: a stale
// beep interval can reactivate a covered vertex right after a naive
// snapshot check. Run therefore confirms stability over a full influence
// horizon — so a configuration it reports as stable must survive further
// execution: stepping well past the horizon may not break the MIS.
func TestDriftedStabilizationIsConfirmed(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		g := graph.Gnp(48, 0.08, xrand.New(seed+40))
		for _, mk := range []func() (func(int) int, func() bool, func(int) bool, *async.Engine){
			func() (func(int) int, func() bool, func(int) bool, *async.Engine) {
				m := async.NewMIS(g, seed, async.NewBounded(2.5), nil)
				return func(max int) int { r, _ := m.Run(max); return r }, m.Stabilized, m.Black, m.Engine()
			},
			func() (func(int) int, func() bool, func(int) bool, *async.Engine) {
				m := async.NewThreeStateMIS(g, seed, async.NewAdversarial(2), nil)
				return func(max int) int { r, _ := m.Run(max); return r }, m.Stabilized, m.Black, m.Engine()
			},
		} {
			run, stabilized, black, eng := mk()
			limit := 8 * mis.DefaultRoundCap(g.N())
			run(limit)
			if !stabilized() {
				t.Fatalf("seed %d: drifted run did not stabilize", seed)
			}
			before := make([]bool, g.N())
			for u := range before {
				before[u] = black(u)
			}
			for r := 0; r < 24; r++ {
				eng.StepRound()
			}
			if !stabilized() {
				t.Fatalf("seed %d: confirmed-stable configuration regressed after %d extra rounds", seed, 24)
			}
			for u := range before {
				if black(u) != before[u] {
					t.Fatalf("seed %d: confirmed-stable projection changed at vertex %d", seed, u)
				}
			}
		}
	}
}

// An execution is a pure function of (graph, seed, drift): a replay must
// agree on every observable, including the clock-side instruments.
func TestDeterministicReplay(t *testing.T) {
	g := graph.Gnp(64, 0.06, xrand.New(9))
	run := func() (*async.MIS, int, bool) {
		m := async.NewMIS(g, 7, async.NewBounded(1.5), nil)
		r, ok := m.Run(5000)
		return m, r, ok
	}
	a, ra, oka := run()
	b, rb, okb := run()
	if ra != rb || oka != okb {
		t.Fatalf("replay diverged: (%d, %v) vs (%d, %v)", ra, oka, rb, okb)
	}
	for u := 0; u < g.N(); u++ {
		if a.Black(u) != b.Black(u) {
			t.Fatalf("replay colors diverge at %d", u)
		}
	}
	if a.RandomBits() != b.RandomBits() {
		t.Fatalf("replay bits diverge: %d vs %d", a.RandomBits(), b.RandomBits())
	}
	ea, eb := a.Engine(), b.Engine()
	amin, amax := ea.ObservedSlotLens()
	bmin, bmax := eb.ObservedSlotLens()
	if ea.Now() != eb.Now() || ea.MaxSkew() != eb.MaxSkew() || amin != bmin || amax != bmax {
		t.Fatalf("replay instruments diverge: now %d/%d skew %d/%d lens [%d,%d]/[%d,%d]",
			ea.Now(), eb.Now(), ea.MaxSkew(), eb.MaxSkew(), amin, amax, bmin, bmax)
	}
}

// The adversarial drift sustains the maximal rate gap: on any graph with an
// even-odd edge the slot-index skew must grow with virtual time, and the
// observed slot lengths must pin both extremes of the bound.
func TestAdversarialDriftSkew(t *testing.T) {
	g := graph.Path(16)
	a := async.NewMIS(g, 3, async.NewAdversarial(2), nil)
	e := a.Engine()
	for r := 0; r < 20; r++ {
		e.StepRound()
	}
	if sk := e.MaxSkew(); sk < 10 {
		t.Fatalf("adversarial ρ=2 skew after 20 rounds = %d, want >= 10", sk)
	}
	min, max := e.ObservedSlotLens()
	if min != async.SlotTicks || max != async.MaxSlotTicks(2) {
		t.Fatalf("observed slot lengths [%d, %d], want [%d, %d]",
			min, max, int64(async.SlotTicks), async.MaxSlotTicks(2))
	}
}

// Eventual synchrony with GST = 0 is lockstep from the start regardless of
// ρ: it must equal the synchronous execution exactly.
func TestEventualSyncGSTZeroIsSynchronous(t *testing.T) {
	g := graph.Gnp(40, 0.1, xrand.New(4))
	bee := beeping.NewMIS(g, 11, nil)
	a := async.NewMIS(g, 11, async.NewEventualSync(3, 0), nil)
	br, bok := bee.Run(5000)
	ar, aok := a.Run(5000)
	if br != ar || bok != aok {
		t.Fatalf("GST=0 run (%d, %v) differs from sync (%d, %v)", ar, aok, br, bok)
	}
	for u := 0; u < g.N(); u++ {
		if bee.Black(u) != a.Black(u) {
			t.Fatalf("GST=0 colors diverge at %d", u)
		}
	}
}

// A drift model leaving its own bound is a model bug: the engine must
// refuse to run it.
type brokenDrift struct{}

func (brokenDrift) Name() string { return "broken" }
func (brokenDrift) Rho() float64 { return 1.5 }
func (brokenDrift) SlotLen(_, _ int, _ int64, _ *xrand.Rand) int64 {
	return 2 * async.MaxSlotTicks(1.5)
}

func TestDriftBoundEnforced(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bound slot length accepted")
		}
	}()
	ps := beeping.NewPrograms(4, 1, nil)
	async.NewEngine(graph.Path(4), ps.Model(), ps.Programs(), brokenDrift{}, 1)
}

func TestConstructorValidation(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("NewBounded(0.5)", func() { async.NewBounded(0.5) })
	expectPanic("NewAdversarial(NaN-ish)", func() { async.NewAdversarial(0) })
	expectPanic("NewEventualSync(-1 gst)", func() { async.NewEventualSync(2, -1) })
	expectPanic("program count mismatch", func() {
		ps := beeping.NewPrograms(3, 1, nil)
		async.NewEngine(graph.Path(4), ps.Model(), ps.Programs(), async.NewBounded(1), 1)
	})
	expectPanic("nil drift", func() {
		ps := beeping.NewPrograms(4, 1, nil)
		async.NewEngine(graph.Path(4), ps.Model(), ps.Programs(), nil, 1)
	})
	expectPanic("bad channel count", func() {
		ps := beeping.NewPrograms(4, 1, nil)
		async.NewEngine(graph.Path(4), noderun.Model{Name: "bad", Channels: 0}, ps.Programs(), async.NewBounded(1), 1)
	})
}

func TestDriftByName(t *testing.T) {
	for _, name := range async.DriftNames() {
		d, err := async.DriftByName(name, 1.5, 8)
		if err != nil || d.Name() != name || d.Rho() != 1.5 {
			t.Fatalf("DriftByName(%q) = %v, %v", name, d, err)
		}
	}
	if _, err := async.DriftByName("nope", 1.5, 0); err == nil {
		t.Fatal("unknown drift name accepted")
	}
	if _, err := async.DriftByName("bounded", 0.5, 0); err == nil {
		t.Fatal("ρ < 1 accepted")
	}
	if _, err := async.DriftByName("bounded", 1e15, 0); err == nil {
		t.Fatal("ρ past MaxRho accepted (would overflow the slot bound)")
	}
	if _, err := async.DriftByName("eventual-sync", 1.5, -3); err == nil {
		t.Fatal("negative GST accepted")
	}
}
