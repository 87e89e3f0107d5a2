package stoneage

import (
	"testing"

	"ssmis/internal/graph"
	"ssmis/internal/mis"
	"ssmis/internal/verify"
	"ssmis/internal/xrand"
)

func TestThreeStateStabilizesToMIS(t *testing.T) {
	rng := xrand.New(1)
	families := map[string]*graph.Graph{
		"path":   graph.Path(30),
		"clique": graph.Complete(24),
		"star":   graph.Star(20),
		"gnp":    graph.Gnp(80, 0.08, rng),
	}
	for name, g := range families {
		m := NewThreeStateMIS(g, 42, nil)
		_, ok := m.Run(mis.DefaultRoundCap(g.N()))
		if !ok {
			t.Errorf("%s: 3-state stone age protocol did not stabilize", name)
			continue
		}
		if err := verify.MIS(g, m.Black); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestThreeColorStabilizesToMIS(t *testing.T) {
	rng := xrand.New(2)
	families := map[string]*graph.Graph{
		"path":      graph.Path(30),
		"clique":    graph.Complete(24),
		"gnp-dense": graph.Gnp(60, 0.3, rng),
	}
	for name, g := range families {
		m := NewThreeColorMIS(g, 42, nil, nil)
		_, ok := m.Run(4 * mis.DefaultRoundCap(g.N()))
		if !ok {
			t.Errorf("%s: 3-color stone age protocol did not stabilize", name)
			continue
		}
		if err := verify.MIS(g, m.Black); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// E12 equivalence for the 3-state process: the stone age runtime and the
// array simulator agree state-for-state at every round.
func TestThreeStateMatchesSimulatorExactly(t *testing.T) {
	rng := xrand.New(3)
	for trial := 0; trial < 6; trial++ {
		seed := uint64(200 + trial)
		g := graph.Gnp(50, 0.1, rng.Split(uint64(trial)))
		sim := mis.NewThreeState(g, mis.WithSeed(seed))
		sa := NewThreeStateMIS(g, seed, nil)

		for u := 0; u < g.N(); u++ {
			if sim.State(u) != sa.State(u) {
				t.Fatalf("trial %d: initial states differ at %d: %v vs %v",
					trial, u, sim.State(u), sa.State(u))
			}
		}
		for r := 0; r < 5000 && !sim.Stabilized(); r++ {
			sim.Step()
			sa.engine.Step()
			for u := 0; u < g.N(); u++ {
				if sim.State(u) != sa.State(u) {
					t.Fatalf("trial %d round %d: states diverge at vertex %d: %v vs %v",
						trial, r+1, u, sim.State(u), sa.State(u))
				}
			}
		}
		if !sim.Stabilized() || !sa.Stabilized() {
			t.Fatalf("trial %d: stabilization mismatch", trial)
		}
	}
}

// E12 equivalence for the 3-color process, including switch levels.
func TestThreeColorMatchesSimulatorExactly(t *testing.T) {
	rng := xrand.New(4)
	for trial := 0; trial < 5; trial++ {
		seed := uint64(300 + trial)
		g := graph.Gnp(40, 0.2, rng.Split(uint64(trial)))
		sim := mis.NewThreeColor(g, mis.WithSeed(seed))
		sa := NewThreeColorMIS(g, seed, nil, nil)

		check := func(r int) {
			t.Helper()
			for u := 0; u < g.N(); u++ {
				if sim.ColorOf(u) != sa.ColorOf(u) {
					t.Fatalf("trial %d round %d: colors diverge at %d: %v vs %v",
						trial, r, u, sim.ColorOf(u), sa.ColorOf(u))
				}
				if sim.SwitchLevel(u) != sa.Level(u) {
					t.Fatalf("trial %d round %d: levels diverge at %d: %d vs %d",
						trial, r, u, sim.SwitchLevel(u), sa.Level(u))
				}
			}
		}
		check(0)
		for r := 0; r < 10000 && !sim.Stabilized(); r++ {
			sim.Step()
			sa.engine.Step()
			check(r + 1)
		}
		if !sim.Stabilized() || !sa.Stabilized() {
			t.Fatalf("trial %d: stabilization mismatch", trial)
		}
	}
}

func TestThreeStateExplicitInitial(t *testing.T) {
	g := graph.Path(2)
	m := NewThreeStateMIS(g, 1, []mis.TriState{mis.TriBlack1, mis.TriWhite})
	if !m.Stabilized() {
		t.Fatal("stable configuration not recognized")
	}
	if m.State(0) != mis.TriBlack1 || m.State(1) != mis.TriWhite {
		t.Fatal("initial states not honored")
	}
}

func TestThreeColorExplicitInitial(t *testing.T) {
	g := graph.Path(2)
	colors := []mis.Color{mis.ColorBlack, mis.ColorWhite}
	levels := []uint8{3, 3}
	m := NewThreeColorMIS(g, 1, colors, levels)
	if !m.Stabilized() {
		t.Fatal("stable configuration not recognized")
	}
	if m.ColorOf(0) != mis.ColorBlack || m.Level(1) != 3 {
		t.Fatal("initial state not honored")
	}
}

func TestThreeColorLevelsAlwaysInRange(t *testing.T) {
	g := graph.Gnp(30, 0.2, xrand.New(5))
	m := NewThreeColorMIS(g, 6, nil, nil)
	for r := 0; r < 300; r++ {
		m.engine.Step()
		for u := 0; u < g.N(); u++ {
			if m.Level(u) > 5 {
				t.Fatalf("round %d: level(%d) = %d out of range", r, u, m.Level(u))
			}
		}
	}
}

func TestRandomBitsPositive(t *testing.T) {
	g := graph.Complete(12)
	m3s := NewThreeStateMIS(g, 7, nil)
	m3s.Run(2000)
	if m3s.RandomBits() == 0 {
		t.Error("3-state consumed no random bits")
	}
	m3c := NewThreeColorMIS(g, 8, nil, nil)
	m3c.Run(5000)
	if m3c.RandomBits() == 0 {
		t.Error("3-color consumed no random bits")
	}
}

// Malformed initial states are caller bugs: each constructor names the
// argument and the bad length or value instead of indexing out of range or
// silently accepting a state the programs do not define.
func TestConstructorsRejectMalformedInitialStates(t *testing.T) {
	g := graph.Path(10)
	colors := func(n int) []mis.Color {
		cs := make([]mis.Color, n)
		for i := range cs {
			cs[i] = mis.ColorWhite
		}
		return cs
	}
	states := func(n int) []mis.TriState {
		ss := make([]mis.TriState, n)
		for i := range ss {
			ss[i] = mis.TriWhite
		}
		return ss
	}
	badState := states(10)
	badState[4] = 0
	badColor := colors(10)
	badColor[2] = mis.ColorGray + 1
	badLevel := make([]uint8, 10)
	badLevel[7] = 9
	for _, c := range []struct {
		name string
		mk   func()
		want string
	}{
		{"3-state short", func() { NewThreeStateMIS(g, 1, states(3)) },
			"stoneage: initial length 3 != n 10"},
		{"3-state long", func() { NewThreeStateMIS(g, 1, states(11)) },
			"stoneage: initial length 11 != n 10"},
		{"3-state zero state", func() { NewThreeStateMIS(g, 1, badState) },
			"stoneage: initial[4] = TriState(0), not white, black0 or black1"},
		{"3-color colors without levels", func() { NewThreeColorMIS(g, 1, colors(10), nil) },
			"stoneage: initColors given without initLevels"},
		{"3-color levels without colors", func() { NewThreeColorMIS(g, 1, nil, make([]uint8, 10)) },
			"stoneage: initLevels given without initColors"},
		{"3-color short colors", func() { NewThreeColorMIS(g, 1, colors(3), make([]uint8, 10)) },
			"stoneage: initColors length 3 != n 10"},
		{"3-color long colors", func() { NewThreeColorMIS(g, 1, colors(11), make([]uint8, 10)) },
			"stoneage: initColors length 11 != n 10"},
		{"3-color short levels", func() { NewThreeColorMIS(g, 1, colors(10), make([]uint8, 3)) },
			"stoneage: initLevels length 3 != n 10"},
		{"3-color long levels", func() { NewThreeColorMIS(g, 1, colors(10), make([]uint8, 11)) },
			"stoneage: initLevels length 11 != n 10"},
		{"3-color bad color", func() { NewThreeColorMIS(g, 1, badColor, make([]uint8, 10)) },
			"stoneage: initColors[2] = Color(4), not white, black or gray"},
		{"3-color level above top", func() { NewThreeColorMIS(g, 1, colors(10), badLevel) },
			"stoneage: initLevels[7] = 9 above the top level 5"},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if got := recover(); got != c.want {
					t.Fatalf("panic %v, want %q", got, c.want)
				}
			}()
			c.mk()
		})
	}
}
