package mis

import (
	"testing"

	"ssmis/internal/engine"
	"ssmis/internal/graph"
	"ssmis/internal/xrand"
)

// counterPlaneOf exposes the engine's resolved counter-plane geometry for a
// process (the zero Info on the complete-graph fast path).
func counterPlaneOf(p Process) engine.CounterPlaneInfo {
	switch q := p.(type) {
	case *TwoState:
		return q.core.CounterPlane()
	case *ThreeState:
		return q.core.CounterPlane()
	case *ThreeColor:
		return q.core.CounterPlane()
	default:
		return engine.CounterPlaneInfo{}
	}
}

// The default resolution, observed through the public geometry: the
// graph's maximum degree alone picks the lane width, whatever the degrees
// of the other vertices. A star's centre needs 16 bits over a unit-degree
// tail; the dense G(1024, 0.25), where every vertex has degree >= 200, needs
// 16 bits too; a star beyond 65535 leaves needs int32 lanes; the complete
// graph runs its fast path with no plane at all.
func TestCounterLayoutAuto(t *testing.T) {
	cases := []struct {
		name      string
		g         *graph.Graph
		layout    engine.CounterLayout
		widthBits int
	}{
		{"caterpillar", graph.Caterpillar(120, 5), engine.LayoutNarrow, 8},
		{"star", graph.Star(700), engine.LayoutNarrow, 16},
		{"powerlaw", graph.ChungLu(8000, 2.0, 10, xrand.New(42)), engine.LayoutNarrow, 16},
		{"gnp-dense", graph.Gnp(1024, 0.25, xrand.New(1)), engine.LayoutNarrow, 16},
		{"star70k", graph.Star(70000), engine.LayoutFlat, 32},
	}
	for _, c := range cases {
		info := counterPlaneOf(NewTwoState(c.g, WithSeed(1)))
		if !info.Active || info.Layout != c.layout || info.WidthBits != c.widthBits || info.HubLen != 0 {
			t.Errorf("%s (max degree %d): resolved %+v, want layout=%v width=%d with no hub prefix",
				c.name, c.g.MaxDegree(), info, c.layout, c.widthBits)
		}
	}
	if info := counterPlaneOf(NewTwoState(graph.Complete(256), WithSeed(1))); info.Active {
		t.Errorf("complete graph configured a counter plane: %+v", info)
	}
}

// Rebind re-resolves the lane width: a star whose centre has 65535 leaves
// fits 16-bit lanes, and adding one more leaf overflows them. An all-black
// start puts the centre's counter at the degree, so a plane that kept its
// 16-bit lanes across the Rebind would wrap the recount; instead it must
// switch to int32 lanes and back, with intact counters, and each rebound
// run must replay a process built on its graph from the same start.
func TestCounterLayoutOverflowFallback(t *testing.T) {
	g32 := graph.Star(65537)             // centre degree 65536
	g16 := g32.WithEdgeToggled(0, 65536) // centre degree 65535
	allBlack := make([]bool, g32.N())
	for u := range allBlack {
		allBlack[u] = true
	}
	for _, c := range []struct {
		from, to  *graph.Graph
		widthBits int
	}{
		{g16, g32, 32},
		{g32, g16, 16},
	} {
		p := NewTwoState(c.from, WithSeed(9), WithInitialBlack(allBlack))
		p.Rebind(c.to)
		if info := counterPlaneOf(p); info.WidthBits != c.widthBits {
			t.Fatalf("rebound onto max degree %d: %d-bit lanes, want %d", c.to.MaxDegree(), info.WidthBits, c.widthBits)
		}
		p.checkCounters(t)
		fresh := NewTwoState(c.to, WithSeed(9), WithInitialBlack(allBlack))
		for !p.Stabilized() {
			p.Step()
			fresh.Step()
			p.checkCounters(t)
			if p.Round() > DefaultRoundCap(p.N()) {
				t.Fatalf("%d-bit run did not stabilize", c.widthBits)
			}
		}
		if !fresh.Stabilized() || p.Round() != fresh.Round() || p.RandomBits() != fresh.RandomBits() {
			t.Fatalf("%d-bit: rebound run (%d rounds, %d bits) vs fresh (%d, %d)",
				c.widthBits, p.Round(), p.RandomBits(), fresh.Round(), fresh.RandomBits())
		}
		for u := 0; u < p.N(); u++ {
			if p.Black(u) != fresh.Black(u) {
				t.Fatalf("%d-bit: color of %d diverged", c.widthBits, u)
			}
		}
	}
}

// A run context leased across graphs whose planes resolve to different
// widths (8 -> 16 -> 32 -> 8 -> 16 bits) must reconfigure the plane without
// leaking cells between runs: each context-backed run must equal its
// context-free execution exactly. CheckIntegrity-style layout invariants
// are enforced inside the engine; here the observable contract is checked
// end to end.
func TestCounterLayoutRunContextReuse(t *testing.T) {
	ctx := engine.NewRunContext()
	cases := []struct {
		g         *graph.Graph
		widthBits int
	}{
		{graph.Caterpillar(200, 3), 8},
		{graph.ChungLu(8000, 2.0, 10, xrand.New(42)), 16},
		{graph.Star(70000), 32},
		{graph.Gnp(500, 0.05, xrand.New(8)), 8},
		{graph.Gnp(1024, 0.25, xrand.New(1)), 16},
	}
	for i, c := range cases {
		seed := uint64(20 + i)
		cap := 4 * DefaultRoundCap(c.g.N())
		ref := Run(NewThreeState(c.g, WithSeed(seed)), cap)
		p := NewThreeState(c.g, WithSeed(seed), WithRunContext(ctx))
		if info := counterPlaneOf(p); info.WidthBits != c.widthBits {
			t.Fatalf("graph %d: %d-bit lanes, want %d", i, info.WidthBits, c.widthBits)
		}
		if got := Run(p, cap); got != ref {
			t.Fatalf("graph %d: context-backed %+v vs fresh %+v", i, got, ref)
		}
	}
}
