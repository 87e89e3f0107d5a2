package engine

import (
	"testing"

	"ssmis/internal/engine/kernel"
	"ssmis/internal/graph"
	"ssmis/internal/xrand"
)

// threeTestProg is the 3-state MIS rule (Definition 5) as a lane program,
// restated locally like testProg: codes {white, black0, —, black1}, counter
// B counting black1 neighbors, a black0 vertex with a black1 neighbor
// demoted to white without a coin.
var threeTestProg = kernel.MustCompile(kernel.Spec{
	StateOf: [4]uint8{tWhite, tBlack0, 0, tBlack1},
	UseB:    true,
	Active: kernel.TruthTable(func(code int, a, b bool) bool {
		switch code {
		case 3:
			return true
		case 1:
			return !b
		default:
			return !a
		}
	}),
	Touched: kernel.TruthTable(func(code int, a, _ bool) bool { return code&1 == 1 || !a }),
	CoinHi:  [4]uint8{3, 3, 3, 3},
	CoinLo:  [4]uint8{1, 1, 1, 1},
})

const (
	tBlack0 uint8 = 2
	tBlack1 uint8 = 3
)

// newThreeTestCore builds a 3-state core on g from the given states, vertex
// u drawing from master.Split(u); flat forces int32 counters.
func newThreeTestCore(g *graph.Graph, state []uint8, seed uint64, flat bool) *Core {
	master := xrand.New(seed)
	rngs := make([]*xrand.Rand, g.N())
	for u := range rngs {
		rngs[u] = master.Split(uint64(u))
	}
	opts := Options{Bias: 0.5}
	if flat {
		opts.Ctx = NewRunContext()
		ForceFlatCounters(opts.Ctx)
	}
	return New(g, threeTestProg, nil, state, rngs, opts)
}

// A black centre of an all-white star is in I_t from the start and flips
// between black1 and black0 every other round or so. Its leaves are frozen
// whites that never read counter B, so the flips must not reach them: no
// leaf's counter B moves over 20 steps. A Rebuild then recounts from the
// current classes and must clear the centre's frozen class.
func TestStableCoreStopsScatteringCounterB(t *testing.T) {
	g := graph.Star(200)
	n := g.N()
	for _, flat := range []bool{false, true} {
		state := make([]uint8, n)
		for u := range state {
			state[u] = tWhite
		}
		state[0] = tBlack1
		e := newThreeTestCore(g, state, 3, flat)
		if !e.inI.Contains(0) || !e.Stabilized() {
			t.Fatalf("flat=%v: the black centre of a white star is not in I_t", flat)
		}
		want := make([]int32, n)
		for u := 1; u < n; u++ {
			want[u] = e.countB(u)
		}
		flips := 0
		for step := 1; step <= 20; step++ {
			prev := e.State(0)
			e.Step()
			if e.State(0) != prev {
				flips++
			}
			if err := e.CheckIntegrity(); err != nil {
				t.Fatalf("flat=%v step %d: %v", flat, step, err)
			}
			for u := 1; u < n; u++ {
				if got := e.countB(u); got != want[u] {
					t.Fatalf("flat=%v step %d: counter B of leaf %d moved from %d to %d", flat, step, u, want[u], got)
				}
			}
		}
		if flips == 0 {
			t.Fatalf("flat=%v: the centre never flipped, so nothing was exercised", flat)
		}
		e.States()[0] = tBlack0
		e.Rebuild()
		if err := e.CheckIntegrity(); err != nil {
			t.Fatalf("flat=%v after Rebuild: %v", flat, err)
		}
		for u := 1; u < n; u++ {
			if got := e.countB(u); got != 0 {
				t.Fatalf("flat=%v after Rebuild: counter B of leaf %d = %d under a black0 centre", flat, u, got)
			}
		}
	}
}

// The 3-state rule on its default lanes and with int32 counters forced,
// with CheckIntegrity after every step and after edits that move vertices
// into and out of I_t: a stable vertex overwritten by a random state, a
// white neighbor of one turned black1 (evicting it from I_t), and a stable
// vertex swapped to its other black state. Star(300) resolves to 16-bit
// lanes, the other sparse graphs to byte lanes. The complete graph runs the
// class-total fast path, where counter B is never frozen.
func TestThreeStateIntegrityAroundStableCore(t *testing.T) {
	rng := xrand.New(17)
	graphs := []*graph.Graph{
		graph.Gnp(300, 0.03, rng),
		graph.ChungLu(600, 2.0, 6, rng),
		graph.Star(100),
		graph.Complete(40),
		graph.Star(300),
	}
	for gi, g := range graphs {
		for _, flat := range []bool{false, true} {
			n := g.N()
			state := make([]uint8, n)
			for u := range state {
				state[u] = uint8(1 + rng.Intn(3))
			}
			e := newThreeTestCore(g, state, uint64(gi), flat)
			check := func(what string) {
				t.Helper()
				if err := e.CheckIntegrity(); err != nil {
					t.Fatalf("graph %d flat=%v %s: %v", gi, flat, what, err)
				}
			}
			check("after New")
			for step := 0; step < 120; step++ {
				if step%15 == 14 {
					core := stableMembers(e)
					if len(core) > 0 {
						u := core[rng.Intn(len(core))]
						switch step / 15 % 3 {
						case 0:
							e.States()[u] = uint8(1 + rng.Intn(3))
						case 1:
							if nb := e.Graph().Neighbors(u); len(nb) > 0 {
								e.States()[nb[rng.Intn(len(nb))]] = tBlack1
							}
						default:
							e.States()[u] ^= tBlack0 ^ tBlack1
						}
						e.Rebuild()
						check("after an edit around I_t")
					}
				}
				e.Step()
				check("after Step")
			}
		}
	}
}

// stableMembers lists the members of I_t in ascending order.
func stableMembers(e *Core) []int {
	var core []int
	e.inI.ForEach(func(u int) { core = append(core, u) })
	return core
}
