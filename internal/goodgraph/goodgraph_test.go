package goodgraph

import (
	"math"
	"strings"
	"testing"

	"ssmis/internal/graph"
	"ssmis/internal/xrand"
)

func TestGnpIsGoodTypically(t *testing.T) {
	// Lemma 18: G(n,p) is (n,p)-good w.h.p. At n=400 the constants in
	// Definition 17 are generous; all sampled properties should pass.
	rng := xrand.New(1)
	for _, p := range []float64{0.02, 0.1, 0.4} {
		g := graph.Gnp(400, p, rng)
		rep := Checker{Samples: 60}.Check(g, p, rng)
		if !rep.Good() {
			t.Errorf("G(400, %.2f) flagged not good: %v (details %v)", p, rep, rep.Detail)
		}
	}
}

func TestReportStringAndGood(t *testing.T) {
	rng := xrand.New(2)
	g := graph.Gnp(100, 0.1, rng)
	rep := Checker{Samples: 20}.Check(g, 0.1, rng)
	rep.Pass[3] = false
	if rep.Good() {
		t.Fatal("Good() true with failed property")
	}
}

func TestP5CatchesCommonNeighborOutlier(t *testing.T) {
	// K_{2,m}: the two left vertices share m common neighbors, far above
	// max(6np², 4 ln n) for small claimed p.
	g := completeBipartite(2, 60)
	p := 0.01
	ok, detail := checkP5(g, p, math.Log(float64(g.N())))
	if ok {
		t.Fatal("P5 did not flag K_{2,60} at p=0.01")
	}
	if !strings.Contains(detail, "P5") {
		t.Fatalf("detail %q", detail)
	}
}

func TestP6CatchesLargeDiameterDenseClaim(t *testing.T) {
	// A long path claimed to be dense violates P6.
	g := graph.Path(50)
	ok, _ := checkP6(g, 0.9, math.Log(50))
	if ok {
		t.Fatal("P6 did not flag a path claimed to have dense p")
	}
	// Premise not met: sparse p makes P6 vacuous.
	ok, _ = checkP6(g, 0.01, math.Log(50))
	if !ok {
		t.Fatal("P6 flagged a graph whose premise is vacuous")
	}
}

func TestP1CatchesPlantedClique(t *testing.T) {
	// A clique of size 64 inside an otherwise empty 4096-vertex graph:
	// the clique subset has average degree 63 but the claimed p is tiny, so
	// the bound max(8p·64, 4 ln n) ≈ 33 is violated. The top-degree subset
	// heuristic finds the clique deterministically.
	n := 4096
	b := graph.NewBuilder(n)
	for u := 0; u < 64; u++ {
		for v := u + 1; v < 64; v++ {
			b.AddEdge(u, v)
		}
	}
	g := b.Build()
	rng := xrand.New(3)
	c := Checker{Samples: 40}
	ok, detail := c.checkP1(g, 0.001, math.Log(float64(n)), 40, rng)
	if ok {
		t.Fatal("P1 did not flag the planted clique")
	}
	if !strings.Contains(detail, "P1") {
		t.Fatalf("detail %q", detail)
	}
}

func TestVacuousCasesPass(t *testing.T) {
	// p = 0 makes P2, P3, P4 vacuous; the empty graph passes everything.
	rng := xrand.New(4)
	g := graph.Empty(50)
	rep := Checker{Samples: 10}.Check(g, 0, rng)
	if !rep.Good() {
		t.Fatalf("empty graph at p=0 flagged: %v", rep.Detail)
	}
}

func TestTinyGraphs(t *testing.T) {
	rng := xrand.New(5)
	for _, n := range []int{1, 2, 3} {
		g := graph.Complete(n)
		rep := Checker{Samples: 5}.Check(g, 0.5, rng)
		_ = rep.Good() // must simply not panic
	}
}

func TestRandomSubsetProperties(t *testing.T) {
	rng := xrand.New(6)
	for _, k := range []int{0, 1, 5, 10} {
		s := randomSubset(10, k, rng)
		if len(s) != k {
			t.Fatalf("randomSubset(10, %d) has %d elements", k, len(s))
		}
		seen := map[int]bool{}
		for _, u := range s {
			if u < 0 || u >= 10 || seen[u] {
				t.Fatalf("invalid subset %v", s)
			}
			seen[u] = true
		}
	}
	// Oversized request clamps.
	if len(randomSubset(5, 10, rng)) != 5 {
		t.Fatal("oversized subset not clamped")
	}
}

func TestTopDegreeSubset(t *testing.T) {
	g := graph.Star(10) // center 0 has degree 9
	s := topDegreeSubset(g, 1)
	if len(s) != 1 || s[0] != 0 {
		t.Fatalf("topDegreeSubset = %v, want [0]", s)
	}
	if len(topDegreeSubset(g, 100)) != 10 {
		t.Fatal("oversized top-degree subset not clamped")
	}
}

func TestDefaultSampleBudget(t *testing.T) {
	rng := xrand.New(7)
	g := graph.Gnp(60, 0.1, rng)
	rep := Checker{}.Check(g, 0.1, rng)
	if rep.SamplesPerProperty != 200 {
		t.Fatalf("default budget %d, want 200", rep.SamplesPerProperty)
	}
}

// completeBipartite builds K_{a,b} with parts [0,a) and [a,a+b).
func completeBipartite(a, b int) *graph.Graph {
	bl := graph.NewBuilder(a + b)
	for u := 0; u < a; u++ {
		for v := 0; v < b; v++ {
			bl.AddEdge(u, a+v)
		}
	}
	return bl.Build()
}
