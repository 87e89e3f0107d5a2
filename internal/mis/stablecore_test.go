package mis

// Counter B around the 3-state stable core. A vertex in I_t stops
// scattering its black0↔black1 flips into its neighbors' counter B (the
// engine's commitT), so counter B counts each neighbor's last scattered
// class. CheckIntegrity recounts counter B under exactly that invariant and
// fails if a lagging counter could change any touched or active bit; these
// tests call it after every round and after every edit that moves vertices
// out of I_t — corruption, rebind, checkpoint restore — on a graph of each
// counter layout: a Chung-Lu graph, whose maximum degree needs 16-bit
// lanes, and a star whose centre needs int32 lanes.

import (
	"testing"

	"ssmis/internal/engine"
	"ssmis/internal/graph"
	"ssmis/internal/xrand"
)

// coreTestGraph is a graph and the counter layout it resolves to.
type coreTestGraph struct {
	layout engine.CounterLayout
	g      *graph.Graph
}

// coreTestGraphs returns one graph of each counter layout.
func coreTestGraphs() []coreTestGraph {
	return []coreTestGraph{
		{engine.LayoutNarrow, powerLawGraph()},
		{engine.LayoutFlat, graph.Star(70000)},
	}
}

// powerLawGraph is a Chung-Lu graph whose maximum degree needs 16-bit
// lanes.
func powerLawGraph() *graph.Graph { return graph.ChungLu(3000, 2.0, 8, xrand.New(42)) }

// stableCore lists the members of I_t (black, no black neighbor) in
// original ids, ascending.
func (p *ThreeState) stableCore() []int {
	var core []int
	for u := 0; u < p.N(); u++ {
		if !p.Black(u) {
			continue
		}
		stable := true
		for _, v := range p.Graph().Neighbors(u) {
			if p.Black(int(v)) {
				stable = false
				break
			}
		}
		if stable {
			core = append(core, u)
		}
	}
	return core
}

// whiteNeighborOfCore returns a white neighbor of a member of I_t, or -1.
func (p *ThreeState) whiteNeighborOfCore() int {
	for _, u := range p.stableCore() {
		if nb := p.Graph().Neighbors(u); len(nb) > 0 {
			return int(nb[0])
		}
	}
	return -1
}

// runChecked steps p to stabilization and then extra rounds past it (where
// every round flips about half of I_t), checking integrity after each.
func (p *ThreeState) runChecked(t *testing.T, extra int) {
	t.Helper()
	limit := DefaultRoundCap(p.N())
	for !p.Stabilized() && p.Round() < limit {
		p.Step()
		p.checkCounters(t)
	}
	if !p.Stabilized() {
		t.Fatalf("no stabilization within %d rounds", limit)
	}
	for i := 0; i < extra; i++ {
		p.Step()
		p.checkCounters(t)
	}
}

// sameThreeState fails unless p and q agree on round, random bits and every
// state.
func sameThreeState(t *testing.T, what string, p, q *ThreeState) {
	t.Helper()
	if p.Round() != q.Round() || p.RandomBits() != q.RandomBits() {
		t.Fatalf("%s: round/bits %d/%d vs %d/%d", what, p.Round(), p.RandomBits(), q.Round(), q.RandomBits())
	}
	for u := 0; u < p.N(); u++ {
		if p.State(u) != q.State(u) {
			t.Fatalf("%s: round %d: state of %d is %v vs %v", what, p.Round(), u, p.State(u), q.State(u))
		}
	}
}

// Corrupting a member of I_t, corrupting a white neighbor of one, and
// rebinding mid-run each move vertices out of I_t, which only Rebuild may
// do; each must leave counter B consistent with the new configuration.
func TestThreeStateFrozenCounterBUnderEdits(t *testing.T) {
	for _, c := range coreTestGraphs() {
		g := c.g
		t.Run(c.layout.String(), func(t *testing.T) {
			p := NewThreeState(g, WithSeed(41))
			if info := p.CounterPlane(); info.Layout != c.layout {
				t.Fatalf("resolved %+v, want %v", info, c.layout)
			}
			p.checkCounters(t)
			p.runChecked(t, 20)
			r := xrand.New(7)

			for _, s := range []TriState{TriWhite, TriBlack0, TriBlack1} {
				core := p.stableCore()
				for _, u := range []int{core[0], core[r.Intn(len(core))]} { // lowest id, then any
					p.Corrupt(u, s)
					p.checkCounters(t)
				}
				p.runChecked(t, 10)
			}

			for _, s := range []TriState{TriBlack1, TriBlack0} {
				w := p.whiteNeighborOfCore()
				if w < 0 {
					t.Fatal("no white neighbor of I_t")
				}
				p.Corrupt(w, s)
				p.checkCounters(t)
				p.runChecked(t, 10)
			}

			// Rebind once while the core is re-forming after a fault, once
			// while it is stable.
			cur := g
			for _, settled := range []bool{false, true} {
				if !settled {
					p.Corrupt(p.stableCore()[0], TriWhite)
				}
				for i := 0; i < 2; i++ {
					p.Step()
					p.checkCounters(t)
				}
				cur, _ = cur.WithRandomChurn(60, r)
				p.Rebind(cur)
				p.checkCounters(t)
				p.runChecked(t, 10)
			}
		})
	}
}

// A checkpoint taken mid-run — while the stable core is still growing, and
// again after stabilization, when counter B lags around I_t — restores to a
// process whose counters are recounted from scratch. Both must pass
// CheckIntegrity every round and continue the identical execution.
func TestThreeStateFrozenCounterBCheckpointResume(t *testing.T) {
	for _, c := range coreTestGraphs() {
		g := c.g
		t.Run(c.layout.String(), func(t *testing.T) {
			p := NewThreeState(g, WithSeed(43))
			for _, pause := range []int{3, -1} {
				if pause > 0 {
					for i := 0; i < pause; i++ {
						p.Step()
						p.checkCounters(t)
					}
				} else {
					p.runChecked(t, 15)
				}
				ck, err := p.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				q, err := RestoreThreeState(g, ck)
				if err != nil {
					t.Fatal(err)
				}
				q.checkCounters(t)
				sameThreeState(t, "at restore", p, q)
				for i := 0; i < 30; i++ {
					p.Step()
					q.Step()
					p.checkCounters(t)
					q.checkCounters(t)
					sameThreeState(t, "after restore", p, q)
				}
			}
		})
	}
}

// One run context leased by 3-state, then 2-state, then 3-state runs on
// graphs of different sizes: the frozen-class bitset and every other lease
// are reshaped and zeroed, so each run passes CheckIntegrity every round and
// equals its context-free execution.
func TestThreeStateFrozenCounterBRunContextReuse(t *testing.T) {
	ctx := engine.NewRunContext()
	cases := []struct {
		three bool
		g     *graph.Graph
	}{
		{true, powerLawGraph()},
		{false, graph.Gnp(500, 0.02, xrand.New(3))},
		{true, graph.ChungLu(1200, 2.0, 6, xrand.New(4))},
		{true, graph.Gnp(2000, 0.004, xrand.New(5))},
	}
	for i, c := range cases {
		seed := uint64(50 + i)
		if !c.three {
			ref := Run(NewTwoState(c.g, WithSeed(seed)), DefaultRoundCap(c.g.N()))
			p := NewTwoState(c.g, WithSeed(seed), WithRunContext(ctx))
			p.checkCounters(t)
			for !p.Stabilized() {
				p.Step()
				p.checkCounters(t)
			}
			if got := (Result{Rounds: p.Round(), Stabilized: true, RandomBits: p.RandomBits()}); got != ref {
				t.Fatalf("case %d: context-backed 2-state %+v vs fresh %+v", i, got, ref)
			}
			continue
		}
		ref := NewThreeState(c.g, WithSeed(seed))
		p := NewThreeState(c.g, WithSeed(seed), WithRunContext(ctx))
		p.checkCounters(t)
		p.runChecked(t, 10)
		for ref.Round() < p.Round() {
			ref.Step()
		}
		sameThreeState(t, "context-backed vs fresh", p, ref)
	}
}
