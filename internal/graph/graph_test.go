package graph

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"ssmis/internal/xrand"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	g := b.Build()
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("got n=%d m=%d, want 4, 4", g.N(), g.M())
	}
	for u := 0; u < 4; u++ {
		if g.Degree(u) != 2 {
			t.Fatalf("vertex %d degree %d, want 2", u, g.Degree(u))
		}
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong")
	}
}

func TestBuilderDeduplicates(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(0, 1)
	g := b.Build()
	if g.M() != 1 {
		t.Fatalf("M = %d after duplicate edges, want 1", g.M())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Fatal("duplicate edges inflated degrees")
	}
}

// A sorted append skips the sort only when it also lies above the edges
// an earlier Build kept; a sorted batch that reaches back below them, or
// repeats the last of them, must still be merged.
func TestBuilderSortedAppendAfterBuild(t *testing.T) {
	b := NewBuilder(6)
	all := [][2]int{{1, 2}, {3, 4}}
	for _, e := range all {
		b.AddEdge(e[0], e[1])
	}
	b.Build()
	for _, batch := range [][][2]int{
		{{0, 1}, {2, 3}}, // increasing, but starts below {3,4}
		{{3, 4}, {4, 5}}, // increasing, but repeats {3,4}
		{{4, 5}, {5, 0}}, // {0,5} sorts below {4,5}
	} {
		for _, e := range batch {
			b.AddEdge(e[0], e[1])
		}
		all = append(all, batch...)
		got, want := b.Build(), FromEdges(6, all)
		if got.M() != want.M() {
			t.Fatalf("after batch %v: m = %d, want %d", batch, got.M(), want.M())
		}
		for u := 0; u < got.N(); u++ {
			if !slices.Equal(got.Neighbors(u), want.Neighbors(u)) {
				t.Fatalf("after batch %v: neighbours of %d = %v, want %v",
					batch, u, got.Neighbors(u), want.Neighbors(u))
			}
		}
	}
}

func TestBuilderPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"self-loop":    func() { NewBuilder(3).AddEdge(1, 1) },
		"out-of-range": func() { NewBuilder(3).AddEdge(0, 3) },
		"negative":     func() { NewBuilder(3).AddEdge(-1, 0) },
		"negative-n":   func() { NewBuilder(-1) },
		"huge-n":       func() { NewBuilder(math.MaxInt32 + 1) },
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

func TestNeighborsSorted(t *testing.T) {
	rng := xrand.New(1)
	g := Gnp(200, 0.1, rng)
	for u := 0; u < g.N(); u++ {
		nbrs := g.Neighbors(u)
		for i := 1; i < len(nbrs); i++ {
			if nbrs[i-1] >= nbrs[i] {
				t.Fatalf("neighbors of %d not strictly sorted: %v", u, nbrs)
			}
		}
	}
}

func TestCSRSymmetric(t *testing.T) {
	rng := xrand.New(2)
	g := Gnp(150, 0.05, rng)
	g.Edges(func(u, v int) {
		if !g.HasEdge(v, u) {
			t.Fatalf("edge {%d,%d} not symmetric", u, v)
		}
	})
	// Degree sum equals 2m.
	sum := 0
	for u := 0; u < g.N(); u++ {
		sum += g.Degree(u)
	}
	if sum != 2*g.M() {
		t.Fatalf("degree sum %d != 2m = %d", sum, 2*g.M())
	}
}

func TestCompleteGraph(t *testing.T) {
	g := Complete(10)
	if g.M() != 45 {
		t.Fatalf("K_10 has %d edges, want 45", g.M())
	}
	if d := g.Diameter(); d != 1 {
		t.Fatalf("K_10 diameter %d, want 1", d)
	}
	if g.MaxDegree() != 9 {
		t.Fatal("K_10 max degree wrong")
	}
}

// MaxDegree is memoized at build time (the engine's counter-width selection
// reads it on shared read-only graphs); it must agree with a degree scan on
// every construction path — builder, relabeling, and edge edits.
func TestMaxDegreeMemo(t *testing.T) {
	scan := func(g *Graph) int {
		m := 0
		for u := 0; u < g.N(); u++ {
			if d := g.Degree(u); d > m {
				m = d
			}
		}
		return m
	}
	graphs := []*Graph{
		Path(1), Star(50), Complete(12), Caterpillar(10, 3),
		Gnp(300, 0.03, xrand.New(5)), ChungLu(500, 2.2, 6, xrand.New(5)),
	}
	for i, g := range graphs {
		if got, want := g.MaxDegree(), scan(g); got != want {
			t.Fatalf("graph %d: MaxDegree %d, scan says %d", i, got, want)
		}
		perm := make([]int32, g.N())
		for j := range perm {
			perm[j] = int32(g.N() - 1 - j)
		}
		r := Relabel(g, perm)
		if got, want := r.MaxDegree(), scan(r); got != want {
			t.Fatalf("graph %d relabeled: MaxDegree %d, scan says %d", i, got, want)
		}
	}
	g := Star(6)
	if t1 := g.WithEdgeToggled(1, 2); t1.MaxDegree() != scan(t1) {
		t.Fatal("edge toggle stale memo")
	}
	if t2 := g.WithEdgeToggled(0, 1); t2.MaxDegree() != scan(t2) {
		t.Fatal("edge removal stale memo")
	}
}

func TestPathCycleStar(t *testing.T) {
	if g := Path(5); g.M() != 4 || g.Diameter() != 4 {
		t.Fatalf("Path(5): m=%d diam=%d", g.M(), g.Diameter())
	}
	if g := Cycle(6); g.M() != 6 || g.Diameter() != 3 {
		t.Fatalf("Cycle(6): m=%d diam=%d", g.M(), g.Diameter())
	}
	if g := Star(7); g.M() != 6 || g.Degree(0) != 6 || g.Diameter() != 2 {
		t.Fatalf("Star(7) wrong")
	}
	if g := Path(1); g.N() != 1 || g.M() != 0 {
		t.Fatal("Path(1) wrong")
	}
}

func TestTreesAreTrees(t *testing.T) {
	rng := xrand.New(3)
	for _, n := range []int{1, 2, 3, 10, 100, 1000} {
		for name, g := range map[string]*Graph{
			"RandomTree":         RandomTree(n, rng),
			"UniformLabeledTree": UniformLabeledTree(n, rng),
		} {
			if g.N() != n {
				t.Fatalf("%s(%d) has %d vertices", name, n, g.N())
			}
			if g.M() != n-1 && n > 0 {
				t.Fatalf("%s(%d) has %d edges, want %d", name, n, g.M(), n-1)
			}
			if !g.Connected() {
				t.Fatalf("%s(%d) disconnected", name, n)
			}
		}
	}
}

func TestGridTorusHypercube(t *testing.T) {
	g := Grid(3, 4)
	if g.N() != 12 || g.M() != 3*3+2*4 {
		t.Fatalf("Grid(3,4): n=%d m=%d", g.N(), g.M())
	}
	if g.Diameter() != 5 {
		t.Fatalf("Grid(3,4) diameter %d, want 5", g.Diameter())
	}
	tor := Torus(4, 4)
	if tor.M() != 2*16 {
		t.Fatalf("Torus(4,4) m=%d, want 32", tor.M())
	}
	for u := 0; u < tor.N(); u++ {
		if tor.Degree(u) != 4 {
			t.Fatal("Torus not 4-regular")
		}
	}
}

func TestDisjointCliques(t *testing.T) {
	g := DisjointCliques(4, 5)
	if g.N() != 20 || g.M() != 4*10 {
		t.Fatalf("DisjointCliques(4,5): n=%d m=%d", g.N(), g.M())
	}
	_, count := g.ConnectedComponents()
	if count != 4 {
		t.Fatalf("components = %d, want 4", count)
	}
	if g.Diameter() != -1 {
		t.Fatal("disconnected graph should report diameter -1")
	}
}

func TestGnpEdgeCases(t *testing.T) {
	rng := xrand.New(4)
	if g := Gnp(50, 0, rng); g.M() != 0 {
		t.Fatal("Gnp(p=0) has edges")
	}
	if g := Gnp(20, 1, rng); g.M() != 190 {
		t.Fatalf("Gnp(p=1) m=%d, want 190", g.M())
	}
	if g := Gnp(0, 0.5, rng); g.N() != 0 {
		t.Fatal("Gnp(n=0) wrong")
	}
	if g := Gnp(1, 0.5, rng); g.N() != 1 || g.M() != 0 {
		t.Fatal("Gnp(n=1) wrong")
	}
}

func TestGnpEdgeCountConcentrates(t *testing.T) {
	rng := xrand.New(5)
	// Both code paths: sparse (skipping) and dense (enumeration).
	for _, p := range []float64{0.01, 0.1, 0.5, 0.9} {
		const n = 400
		total := float64(n*(n-1)) / 2
		want := p * total
		// Average over a few graphs to tighten.
		sum := 0.0
		const reps = 5
		for i := 0; i < reps; i++ {
			sum += float64(Gnp(n, p, rng).M())
		}
		got := sum / reps
		sigma := sqrtf(total * p * (1 - p) / reps)
		if absf(got-want) > 6*sigma+1 {
			t.Fatalf("Gnp(%d,%.2f) mean edges %.0f, want ≈ %.0f (±%.0f)", n, p, got, want, 6*sigma)
		}
	}
}

func TestGnpPairCoverageUniform(t *testing.T) {
	// Every pair must be reachable by the sparse generator: generate many
	// sparse graphs on a small n and check each pair appears.
	rng := xrand.New(6)
	const n = 12
	seen := make(map[[2]int]bool)
	for i := 0; i < 400; i++ {
		g := Gnp(n, 0.15, rng)
		g.Edges(func(u, v int) { seen[[2]int{u, v}] = true })
	}
	if len(seen) != n*(n-1)/2 {
		t.Fatalf("sparse Gnp covered %d/%d pairs", len(seen), n*(n-1)/2)
	}
}

func TestGnpAvgDegree(t *testing.T) {
	rng := xrand.New(7)
	g := GnpAvgDegree(2000, 10, rng)
	if d := 2 * float64(g.M()) / float64(g.N()); d < 8 || d > 12 {
		t.Fatalf("GnpAvgDegree(2000, 10) average degree %.2f", d)
	}
	if g := GnpAvgDegree(1, 5, rng); g.N() != 1 {
		t.Fatal("GnpAvgDegree(n=1) wrong")
	}
}

func TestRandomRegular(t *testing.T) {
	rng := xrand.New(8)
	g := RandomRegular(100, 6, rng)
	if g.N() != 100 {
		t.Fatal("RandomRegular wrong n")
	}
	short := 0
	for u := 0; u < g.N(); u++ {
		d := g.Degree(u)
		if d > 6 {
			t.Fatalf("vertex %d degree %d > 6", u, d)
		}
		if d < 6 {
			short++
		}
	}
	if short > 5 {
		t.Fatalf("%d vertices below target degree", short)
	}
}

func TestBoundedDegeneracyRandom(t *testing.T) {
	rng := xrand.New(9)
	g := BoundedDegeneracyRandom(500, 3, rng)
	if d := g.Degeneracy(); d > 3 {
		t.Fatalf("degeneracy %d > 3", d)
	}
	if !g.Connected() {
		t.Fatal("BoundedDegeneracyRandom disconnected")
	}
}

func TestCaterpillarAndLollipop(t *testing.T) {
	g := Caterpillar(5, 3)
	if g.N() != 20 || g.M() != 19 || !g.Connected() {
		t.Fatalf("Caterpillar(5,3): n=%d m=%d", g.N(), g.M())
	}
	if g.MaxDegree() < 4 {
		t.Fatal("Caterpillar spine degree too small")
	}
}

func TestBFSAndComponents(t *testing.T) {
	g := Path(5)
	dist := g.BFS(0)
	for i, d := range dist {
		if d != i {
			t.Fatalf("BFS on path: dist[%d]=%d", i, d)
		}
	}
	g2 := DisjointCliques(2, 3)
	dist2 := g2.BFS(0)
	if dist2[3] != -1 {
		t.Fatal("BFS reached another component")
	}
}

func TestDegeneracy(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int
	}{
		{"empty", Empty(5), 0},
		{"path", Path(10), 1},
		{"tree", RandomTree(31, xrand.New(1)), 1},
		{"cycle", Cycle(10), 2},
		{"K5", Complete(5), 4},
		{"grid", Grid(5, 5), 2},
		{"K33", completeBipartite(3, 3), 3},
	}
	for _, c := range cases {
		if got := c.g.Degeneracy(); got != c.want {
			t.Errorf("%s degeneracy = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestDegeneracyOrderingIsValid(t *testing.T) {
	rng := xrand.New(10)
	g := Gnp(300, 0.05, rng)
	d, order := g.DegeneracyOrdering()
	if len(order) != g.N() {
		t.Fatalf("ordering length %d", len(order))
	}
	pos := make([]int, g.N())
	seen := make([]bool, g.N())
	for i, u := range order {
		if seen[u] {
			t.Fatalf("vertex %d repeated in ordering", u)
		}
		seen[u] = true
		pos[u] = i
	}
	// Every vertex has at most d neighbors later in the order.
	for u := 0; u < g.N(); u++ {
		later := 0
		for _, v := range g.Neighbors(u) {
			if pos[v] > pos[u] {
				later++
			}
		}
		if later > d {
			t.Fatalf("vertex %d has %d later neighbors, degeneracy claimed %d", u, later, d)
		}
	}
}

func TestCommonNeighbors(t *testing.T) {
	g := Complete(6)
	if m := g.MaxCommonNeighbors(); m != 4 {
		t.Fatalf("K6 max common neighbors = %d, want 4", m)
	}
	p := Path(4)
	if m := p.MaxCommonNeighbors(); m != 1 {
		t.Fatalf("path max common neighbors = %d, want 1", m)
	}
	if m := Empty(3).MaxCommonNeighbors(); m != 0 {
		t.Fatal("empty graph max common neighbors wrong")
	}
	if m := Star(10).MaxCommonNeighbors(); m != 1 {
		t.Fatalf("star max common neighbors = %d, want 1", m)
	}
}

func TestDiameterAtMostTwo(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want bool
	}{
		{"K5", Complete(5), true},
		{"star", Star(20), true},
		{"K33", completeBipartite(3, 3), true},
		{"path4", Path(4), false},
		{"cycle5", Cycle(5), true},
		{"cycle6", Cycle(6), false},
		{"disconnected", DisjointCliques(2, 3), false},
		{"single", Empty(1), true},
	}
	for _, c := range cases {
		if got := c.g.DiameterAtMostTwo(); got != c.want {
			t.Errorf("%s DiameterAtMostTwo = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestDiameterAtMostTwoMatchesDiameter(t *testing.T) {
	rng := xrand.New(11)
	f := func(seed uint64) bool {
		r := rng.Split(seed)
		n := 2 + r.Intn(40)
		g := Gnp(n, 0.3+0.5*r.Float64(), r)
		d := g.Diameter()
		return g.DiameterAtMostTwo() == (d >= 0 && d <= 2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNeighborhoodClosureAndEdgesBetween(t *testing.T) {
	g := Path(5) // 0-1-2-3-4
	mask := g.NeighborhoodClosure([]int{2})
	want := []bool{false, true, true, true, false}
	for i := range want {
		if mask[i] != want[i] {
			t.Fatalf("closure mask %v, want %v", mask, want)
		}
	}
}

func TestAvgDegreeOfSubset(t *testing.T) {
	g := Complete(6)
	if d := g.AvgDegreeOfSubset([]int{0, 1, 2}); d != 2 {
		t.Fatalf("avg degree of K3 subset = %v, want 2", d)
	}
	if d := g.AvgDegreeOfSubset(nil); d != 0 {
		t.Fatal("empty subset avg degree wrong")
	}
}

func TestFromEdges(t *testing.T) {
	g := FromEdges(3, [][2]int{{0, 1}, {1, 2}})
	if g.M() != 2 || g.Degree(1) != 2 {
		t.Fatal("FromEdges wrong")
	}
}

// Property: building from a random edge set reproduces exactly that edge set.
func TestBuildRoundTripProperty(t *testing.T) {
	rng := xrand.New(12)
	f := func(seed uint64) bool {
		r := rng.Split(seed)
		n := 2 + r.Intn(50)
		want := make(map[[2]int]bool)
		b := NewBuilder(n)
		for i := 0; i < r.Intn(100); i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			want[[2]int{u, v}] = true
			b.AddEdge(u, v)
		}
		g := b.Build()
		got := make(map[[2]int]bool)
		g.Edges(func(u, v int) { got[[2]int{u, v}] = true })
		if len(got) != len(want) {
			return false
		}
		for e := range want {
			if !got[e] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func sqrtf(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func BenchmarkGnpSparse(b *testing.B) {
	rng := xrand.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Gnp(10000, 0.001, rng)
	}
}

// completeBipartite builds K_{a,b} with parts [0,a) and [a,a+b).
func completeBipartite(a, b int) *Graph {
	bl := NewBuilder(a + b)
	for u := 0; u < a; u++ {
		for v := 0; v < b; v++ {
			bl.AddEdge(u, a+v)
		}
	}
	return bl.Build()
}

// cliqueChain builds count cliques of the given size in a chain,
// consecutive cliques joined by one bridge edge.
func cliqueChain(count, size int) *Graph {
	b := NewBuilder(count * size)
	for c := 0; c < count; c++ {
		base := c * size
		for u := 0; u < size; u++ {
			for v := u + 1; v < size; v++ {
				b.AddEdge(base+u, base+v)
			}
		}
		if c > 0 {
			b.AddEdge(base-1, base)
		}
	}
	return b.Build()
}
