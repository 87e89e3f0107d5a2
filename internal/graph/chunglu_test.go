package graph

import (
	"sort"
	"testing"

	"ssmis/internal/xrand"
)

func TestChungLuAverageDegree(t *testing.T) {
	rng := xrand.New(1)
	const n, avg = 4000, 10.0
	sum := 0.0
	const reps = 3
	for i := 0; i < reps; i++ {
		g := ChungLu(n, 2.5, avg, rng)
		sum += 2 * float64(g.M()) / float64(g.N())
	}
	got := sum / reps
	// min(1, ·) capping on the heavy head loses some expected degree; allow
	// a generous band.
	if got < 0.6*avg || got > 1.3*avg {
		t.Fatalf("ChungLu average degree %.2f, want ≈ %.0f", got, avg)
	}
}

func TestChungLuSkewedDegrees(t *testing.T) {
	rng := xrand.New(2)
	g := ChungLu(4000, 2.2, 8, rng)
	degs := make([]int, g.N())
	for u := range degs {
		degs[u] = g.Degree(u)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(degs)))
	// A power law concentrates a large share of edges on the head: the top
	// 1% of vertices should carry several times their proportional share.
	top := g.N() / 100
	headSum := 0
	for _, d := range degs[:top] {
		headSum += d
	}
	share := float64(headSum) / float64(2*g.M())
	if share < 0.05 {
		t.Fatalf("top 1%% of vertices carry only %.1f%% of degree; not skewed", 100*share)
	}
	// And the same-n G(n,p) comparison must be much flatter.
	gn := GnpAvgDegree(4000, 8, rng)
	gdegs := make([]int, gn.N())
	for u := range gdegs {
		gdegs[u] = gn.Degree(u)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(gdegs)))
	gHead := 0
	for _, d := range gdegs[:top] {
		gHead += d
	}
	gShare := float64(gHead) / float64(2*gn.M())
	if share <= gShare {
		t.Fatalf("ChungLu head share %.3f not above Gnp's %.3f", share, gShare)
	}
}

func TestChungLuHeadVertexIsHighDegree(t *testing.T) {
	rng := xrand.New(3)
	g := ChungLu(2000, 2.5, 10, rng)
	avg := 2 * float64(g.M()) / float64(g.N())
	if float64(g.Degree(0)) < 3*avg {
		t.Fatalf("vertex 0 degree %d not far above average %.1f", g.Degree(0), avg)
	}
}

func TestChungLuEdgeCases(t *testing.T) {
	rng := xrand.New(4)
	if g := ChungLu(0, 2.5, 5, rng); g.N() != 0 {
		t.Fatal("n=0 wrong")
	}
	if g := ChungLu(1, 2.5, 5, rng); g.N() != 1 || g.M() != 0 {
		t.Fatal("n=1 wrong")
	}
	if g := ChungLu(100, 2.5, 0, rng); g.M() != 0 {
		t.Fatal("avgDeg=0 should be edgeless")
	}
	g := ChungLu(50, 2.5, 4, rng)
	g.Edges(func(u, v int) {
		if u == v {
			t.Fatal("self-loop")
		}
	})
}

func TestChungLuPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"beta<=1":  func() { ChungLu(10, 1.0, 5, xrand.New(1)) },
		"negative": func() { ChungLu(10, 2.5, -1, xrand.New(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestWattsStrogatzLattice(t *testing.T) {
	rng := xrand.New(11)
	// beta = 0: exact ring lattice, every vertex degree 2k, connected.
	g := WattsStrogatz(60, 3, 0, rng)
	if g.M() != 60*3 {
		t.Fatalf("lattice m=%d, want 180", g.M())
	}
	for u := 0; u < g.N(); u++ {
		if g.Degree(u) != 6 {
			t.Fatalf("lattice vertex %d degree %d, want 6", u, g.Degree(u))
		}
	}
	if !g.Connected() {
		t.Fatal("lattice disconnected")
	}
}

func TestWattsStrogatzRewiringShrinksDiameter(t *testing.T) {
	rng := xrand.New(12)
	lattice := WattsStrogatz(200, 2, 0, rng)
	small := WattsStrogatz(200, 2, 0.3, rng)
	dl, ds := lattice.Diameter(), small.Diameter()
	if ds <= 0 {
		t.Skip("rewired graph disconnected in this draw")
	}
	if ds >= dl {
		t.Fatalf("rewiring did not shrink diameter: %d vs %d", ds, dl)
	}
	// Edge count is preserved by rewiring (toggles replace, not add).
	if small.M() != lattice.M() {
		t.Fatalf("rewiring changed edge count: %d vs %d", small.M(), lattice.M())
	}
}

func TestWattsStrogatzPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"k too big": func() { WattsStrogatz(6, 3, 0.1, xrand.New(1)) },
		"k zero":    func() { WattsStrogatz(6, 0, 0.1, xrand.New(1)) },
		"bad beta":  func() { WattsStrogatz(10, 2, 1.5, xrand.New(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestChungLuMISStabilizes(t *testing.T) {
	// The generator exists to feed the MIS processes realistic skew; check
	// the CSR is well-formed by running BFS and degeneracy on it.
	rng := xrand.New(5)
	g := ChungLu(1000, 2.3, 12, rng)
	if g.Degeneracy() <= 0 && g.M() > 0 {
		t.Fatal("degeneracy wrong")
	}
	comp, count := g.ConnectedComponents()
	if len(comp) != g.N() || count < 1 {
		t.Fatal("components wrong")
	}
}
