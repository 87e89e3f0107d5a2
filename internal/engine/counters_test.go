package engine

import (
	"testing"

	"ssmis/internal/graph"
	"ssmis/internal/xrand"
)

// The width resolution table: the maximum degree alone picks the lane, and
// a flat plane keeps int32 lanes whatever the degree. Star(700)'s centre
// needs 16 bits although every other vertex has degree 1; Complete(80)
// and G(1024, 0.25) have no low-degree tail at all.
func TestResolveCounterLayout(t *testing.T) {
	cases := []struct {
		name  string
		g     *graph.Graph
		flat  bool
		width uint8
	}{
		{"path", graph.Path(100), false, 1},
		{"path/flat", graph.Path(100), true, 4},
		{"complete80", graph.Complete(80), false, 1},
		{"star700", graph.Star(700), false, 2},
		{"gnp1024", graph.Gnp(1024, 0.25, xrand.New(1)), false, 2},
		{"star70k", graph.Star(70000), false, 4},
	}
	for _, c := range cases {
		if got := laneWidth(c.g, c.flat); got != c.width {
			t.Errorf("%s (max degree %d, flat %v): width %d bytes, want %d", c.name, c.g.MaxDegree(), c.flat, got, c.width)
		}
	}
}

// The exact width cut-overs: stars whose centre degree is 255, 256, 65535
// and 65536. All-black starts put the centre's counter at its lane's limit,
// and the first commit moves it. rebuildCountsT has no overflow guard, so a
// width resolved one degree too narrow shows up in CheckIntegrity as a
// counter mismatch instead of a panic.
func TestNarrowLaneWidthBoundaries(t *testing.T) {
	cases := []struct {
		degree    int
		layout    CounterLayout
		widthBits int
	}{
		{255, LayoutNarrow, 8},
		{256, LayoutNarrow, 16},
		{65535, LayoutNarrow, 16},
		{65536, LayoutFlat, 32},
	}
	for _, c := range cases {
		g := graph.Star(c.degree + 1)
		n := g.N()
		master := xrand.New(uint64(c.degree))
		state, rngs := make([]uint8, n), make([]*xrand.Rand, n)
		for u := range state {
			state[u] = tBlack
			rngs[u] = master.Split(uint64(u))
		}
		e := New(g, testProg, nil, state, rngs, Options{Bias: 0.5, NoopWhenIdle: true})
		info := e.CounterPlane()
		if info.Layout != c.layout || info.WidthBits != c.widthBits || info.HubLen != 0 {
			t.Fatalf("degree %d: resolved %+v, want %v w%d", c.degree, info, c.layout, c.widthBits)
		}
		if got := e.countA(0); got != int32(c.degree) {
			t.Fatalf("degree %d: centre counter %d after rebuild", c.degree, got)
		}
		if err := e.CheckIntegrity(); err != nil {
			t.Fatalf("degree %d: %v", c.degree, err)
		}
		for i := 0; i < 1000 && !e.Stabilized(); i++ {
			e.Step()
			if err := e.CheckIntegrity(); err != nil {
				t.Fatalf("degree %d: %v", c.degree, err)
			}
		}
		if !e.Stabilized() {
			t.Fatalf("degree %d: did not stabilize", c.degree)
		}
	}
}

// configure reuses capacity across reshapes; a plane leased across graphs
// of different widths must not leak cells (the RunContext reuse path).
func TestCounterPlaneReconfigure(t *testing.T) {
	var p counterPlane
	g1 := graph.Path(300)   // byte lanes
	g2 := graph.Star(700)   // 16-bit lanes
	g3 := graph.Star(70000) // int32 lanes over a bigger n
	for _, g := range []*graph.Graph{g1, g2, g3, g2, g1} {
		p.configure(g, true)
		if err := p.checkLayout(g); err != nil {
			t.Fatalf("n=%d: %v", g.N(), err)
		}
		// Dirty the last cells, then reconfigure and verify zeroing.
		u := g.N() - 1
		switch p.width {
		case 1:
			p.t8a[u], p.t8b[u] = 7, 7
		case 2:
			p.t16a[u], p.t16b[u] = 7, 7
		default:
			p.t32a[u], p.t32b[u] = 7, 7
		}
	}
	for _, g := range []*graph.Graph{g1, g2, g3} {
		p.configure(g, true)
		for u := 0; u < g.N(); u++ {
			if p.a(u) != 0 || p.b(u) != 0 {
				t.Fatalf("n=%d: cell %d survived reconfigure: a=%d b=%d", g.N(), u, p.a(u), p.b(u))
			}
		}
	}
}
