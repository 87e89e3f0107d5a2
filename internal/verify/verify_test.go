package verify

import (
	"fmt"
	"testing"

	"ssmis/internal/graph"
	"ssmis/internal/xrand"
)

func mask(vals ...int) func(int) bool {
	m := map[int]bool{}
	for _, v := range vals {
		m[v] = true
	}
	return func(u int) bool { return m[u] }
}

func TestIndependent(t *testing.T) {
	g := graph.Path(5) // 0-1-2-3-4
	if err := Independent(g, mask(0, 2, 4)); err != nil {
		t.Fatalf("alternating set on path flagged: %v", err)
	}
	if err := Independent(g, mask(1, 2)); err == nil {
		t.Fatal("adjacent pair not flagged")
	}
	if err := Independent(g, mask()); err != nil {
		t.Fatal("empty set flagged")
	}
}

func TestMaximal(t *testing.T) {
	g := graph.Path(5)
	if err := Maximal(g, mask(0, 2, 4)); err != nil {
		t.Fatalf("maximal set flagged: %v", err)
	}
	if err := Maximal(g, mask(0)); err == nil {
		t.Fatal("non-dominating set not flagged")
	}
	// {1,3} is dominating on the path 0-1-2-3-4.
	if err := Maximal(g, mask(1, 3)); err != nil {
		t.Fatalf("dominating set flagged: %v", err)
	}
}

func TestMIS(t *testing.T) {
	g := graph.Cycle(6)
	if err := MIS(g, mask(0, 2, 4)); err != nil {
		t.Fatalf("valid MIS flagged: %v", err)
	}
	if err := MIS(g, mask(0, 3)); err != nil {
		t.Fatalf("valid 2-element MIS on C6 flagged: %v", err)
	}
	if err := MIS(g, mask(0, 1)); err == nil {
		t.Fatal("dependent set accepted")
	}
	if err := MIS(g, mask(0)); err == nil {
		t.Fatal("non-maximal set accepted")
	}
}

func TestStableBlackAndUnstable(t *testing.T) {
	g := graph.Path(4) // 0-1-2-3
	// black = {0, 1}: both have black neighbors -> no stable black.
	sb := StableBlack(g, mask(0, 1))
	if !sb.Empty() {
		t.Fatalf("StableBlack = %v, want empty", sb)
	}
	un := Unstable(g, mask(0, 1))
	if un.Count() != 4 {
		t.Fatalf("all vertices should be unstable, got %v", un)
	}
	// black = {0, 3}: both stable; N+({0,3}) = {0,1,2,3}.
	sb2 := StableBlack(g, mask(0, 3))
	if sb2.Count() != 2 || !sb2.Contains(0) || !sb2.Contains(3) {
		t.Fatalf("StableBlack = %v", sb2)
	}
	if un2 := Unstable(g, mask(0, 3)); !un2.Empty() {
		t.Fatalf("Unstable = %v, want empty", un2)
	}
	// black = {0}: vertex 3 not dominated -> unstable = {2,3}? N+(I)={0,1}.
	un3 := Unstable(g, mask(0))
	if un3.Count() != 2 || !un3.Contains(2) || !un3.Contains(3) {
		t.Fatalf("Unstable = %v, want {2 3}", un3)
	}
}

func TestUnstableEmptyIffMIS(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 50; trial++ {
		g := graph.Gnp(60, 0.1, rng.Split(uint64(trial)))
		// Build a greedy MIS.
		inMIS := make([]bool, g.N())
		blocked := make([]bool, g.N())
		for u := 0; u < g.N(); u++ {
			if !blocked[u] {
				inMIS[u] = true
				for _, v := range g.Neighbors(u) {
					blocked[v] = true
				}
			}
		}
		black := func(u int) bool { return inMIS[u] }
		if err := MIS(g, black); err != nil {
			t.Fatalf("greedy MIS invalid: %v", err)
		}
		if un := Unstable(g, black); !un.Empty() {
			t.Fatalf("MIS configuration has unstable vertices: %v", un)
		}
	}
}

// maximalScan is the neighbour scan Maximal used before it marked coverage
// from the set's side: each vertex outside the set looks for a neighbour
// inside it. It costs Θ(n²) on a clique and is kept as the reference.
func maximalScan(g *graph.Graph, inSet func(u int) bool) error {
	for u := 0; u < g.N(); u++ {
		if inSet(u) {
			continue
		}
		covered := false
		for _, v := range g.Neighbors(u) {
			if inSet(int(v)) {
				covered = true
				break
			}
		}
		if !covered {
			return fmt.Errorf("verify: maximality violated at vertex %d (no neighbor in set)", u)
		}
	}
	return nil
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestMaximalMatchesScan checks the set-side Maximal against the reference
// scan, error strings included, on random graphs under random masks of
// every density and under greedy MISes with a few vertices removed.
func TestMaximalMatchesScan(t *testing.T) {
	rng := xrand.New(23)
	check := func(g *graph.Graph, in []bool, what string) {
		t.Helper()
		inSet := func(u int) bool { return in[u] }
		if got, want := errString(Maximal(g, inSet)), errString(maximalScan(g, inSet)); got != want {
			t.Fatalf("%s on %v: Maximal = %s, reference = %s", what, g, got, want)
		}
	}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(80)
		g := graph.Gnp(n, rng.Float64()*0.5, rng)
		density := rng.Float64()
		in := make([]bool, n)
		for u := range in {
			in[u] = rng.Bernoulli(density)
		}
		check(g, in, "random mask")

		for u := range in {
			in[u] = false
		}
		blocked := make([]bool, n)
		for u := 0; u < n; u++ {
			if !blocked[u] {
				in[u] = true
				for _, v := range g.Neighbors(u) {
					blocked[v] = true
				}
			}
		}
		check(g, in, "greedy MIS")
		for drop := 0; drop < 3; drop++ {
			in[rng.Intn(n)] = false
			check(g, in, "greedy MIS minus a vertex")
		}
	}
}

func TestMaximalClique(t *testing.T) {
	const n = 64
	g := graph.Complete(n)
	for s := 0; s < n; s++ {
		only := func(u int) bool { return u == s }
		if err := Maximal(g, only); err != nil {
			t.Fatalf("K_%d with MIS {%d}: %v", n, s, err)
		}
		if err := MIS(g, only); err != nil {
			t.Fatalf("K_%d with MIS {%d}: MIS: %v", n, s, err)
		}
	}
	// The empty set leaves vertex 0 uncovered; a clique plus an isolated
	// vertex leaves that vertex uncovered under any one-vertex set.
	const want0 = "verify: maximality violated at vertex 0 (no neighbor in set)"
	if err := errString(Maximal(g, func(int) bool { return false })); err != want0 {
		t.Fatalf("empty set on K_%d: %s, want %s", n, err, want0)
	}
	b := graph.NewBuilder(n + 1)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	h := b.Build()
	only := func(u int) bool { return u == 5 }
	want := fmt.Sprintf("verify: maximality violated at vertex %d (no neighbor in set)", n)
	if got, ref := errString(Maximal(h, only)), errString(maximalScan(h, only)); got != want || ref != want {
		t.Fatalf("K_%d plus an isolated vertex: Maximal = %s, reference = %s, want %s", n, got, ref, want)
	}
}
