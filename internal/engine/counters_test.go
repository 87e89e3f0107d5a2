package engine

import (
	"testing"

	"ssmis/internal/graph"
	"ssmis/internal/xrand"
)

// The layout resolution table: request x degree profile. Star(700) has one
// hub and a unit tail; Star(70000) exceeds 16 bits, so narrow falls back;
// Path has no hubs; Complete(80) is all hub under a split.
func TestResolveCounterLayout(t *testing.T) {
	star700 := graph.Star(700)     // center degree 699: 16-bit narrow, split tail is 1
	star70k := graph.Star(70000)   // center degree 69999: 32-bit fallback for narrow
	path := graph.Path(100)        // max degree 2
	complete := graph.Complete(80) // every degree 79 >= HubDegreeMin: all hub under split
	cases := []struct {
		name     string
		g        *graph.Graph
		req      CounterLayout
		layout   CounterLayout
		width    uint8
		hubLen   int
		fellBack bool
	}{
		{"star700/auto", star700, LayoutAuto, LayoutSplit, 1, 1, false},
		{"star700/flat", star700, LayoutFlat, LayoutFlat, 4, 0, false},
		{"star700/narrow", star700, LayoutNarrow, LayoutNarrow, 2, 0, false},
		{"star700/split", star700, LayoutSplit, LayoutSplit, 1, 1, false},
		{"star70k/auto", star70k, LayoutAuto, LayoutSplit, 1, 1, false},
		{"star70k/narrow", star70k, LayoutNarrow, LayoutNarrow, 4, 0, true},
		{"path/auto", path, LayoutAuto, LayoutNarrow, 1, 0, false},
		{"path/split", path, LayoutSplit, LayoutSplit, 1, 0, false},
		{"complete80/auto", complete, LayoutAuto, LayoutSplit, 1, 80, false},
		{"complete80/narrow", complete, LayoutNarrow, LayoutNarrow, 1, 0, false},
	}
	for _, c := range cases {
		layout, width, hubLen, fellBack := resolveCounterLayout(c.g, c.req)
		if layout != c.layout || width != c.width || hubLen != c.hubLen || fellBack != c.fellBack {
			t.Errorf("%s: resolved (%v, w%d, h=%d, fb=%v), want (%v, w%d, h=%d, fb=%v)",
				c.name, layout, width, hubLen, fellBack, c.layout, c.width, c.hubLen, c.fellBack)
		}
	}
}

// The exact width cut-overs under LayoutNarrow: stars whose centre degree
// is 255, 256, 65535 and 65536. All-black starts put the centre's counter at
// its lane's limit, and the first commit moves it. rebuildCountsT has no
// overflow guard, so a width resolved one degree too narrow shows up in
// CheckIntegrity as a counter mismatch instead of a panic.
func TestNarrowLaneWidthBoundaries(t *testing.T) {
	cases := []struct {
		degree    int
		widthBits int
		fellBack  bool
	}{
		{255, 8, false},
		{256, 16, false},
		{65535, 16, false},
		{65536, 32, true},
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
		e := New(g, testProg, nil, state, rngs, Options{Bias: 0.5, NoopWhenIdle: true, CounterLayout: LayoutNarrow})
		info := e.CounterPlane()
		if info.Layout != LayoutNarrow || info.WidthBits != c.widthBits || info.FellBack != c.fellBack {
			t.Fatalf("degree %d: resolved %+v, want narrow w%d fellBack=%v", c.degree, info, c.widthBits, c.fellBack)
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
	g1 := graph.Star(700)    // split: hub 1, byte tail
	g2 := graph.Star(70000)  // auto split: byte tail over a bigger n
	g3 := graph.Complete(80) // all-hub split
	for _, g := range []*graph.Graph{g1, g2, g3, g1} {
		p.configure(g, LayoutAuto, true)
		if err := p.checkLayout(g, LayoutAuto); err != nil {
			t.Fatalf("n=%d: %v", g.N(), err)
		}
		// Dirty a few tail cells, then reconfigure and verify zeroing.
		n := g.N()
		if n > p.hubLen {
			u := n - 1
			switch p.width {
			case 1:
				p.t8a[u] = 7
			case 2:
				p.t16a[u] = 7
			default:
				p.t32a[u] = 7
			}
		}
	}
	p.configure(g1, LayoutAuto, true)
	for u := 0; u < g1.N(); u++ {
		if p.a(u) != 0 || p.b(u) != 0 {
			t.Fatalf("cell %d survived reconfigure: a=%d b=%d", u, p.a(u), p.b(u))
		}
	}
}
