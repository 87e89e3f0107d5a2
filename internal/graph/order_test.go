package graph

import (
	"slices"
	"testing"

	"ssmis/internal/xrand"
)

// randPerm returns a deterministic pseudo-random permutation of [0, n).
func randPerm(n int, rng *xrand.Rand) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// sameGraphUnderPerm checks that h is exactly g relabeled by perm: vertex
// perm[u] of h has neighbor set {perm[v] : v ~ u}.
func sameGraphUnderPerm(t *testing.T, g, h *Graph, perm []int32) {
	t.Helper()
	if h.N() != g.N() || h.M() != g.M() {
		t.Fatalf("order/size changed: (%d,%d) -> (%d,%d)", g.N(), g.M(), h.N(), h.M())
	}
	for u := 0; u < g.N(); u++ {
		nu := int(perm[u])
		if h.Degree(nu) != g.Degree(u) {
			t.Fatalf("degree of %d (relabeled %d): %d, want %d", u, nu, h.Degree(nu), g.Degree(u))
		}
		for _, v := range g.Neighbors(u) {
			if !h.HasEdge(nu, int(perm[v])) {
				t.Fatalf("edge {%d,%d} missing as {%d,%d}", u, v, nu, perm[v])
			}
		}
	}
}

func TestRelabelIsomorphism(t *testing.T) {
	rng := xrand.New(11)
	for _, g := range []*Graph{Gnp(200, 0.05, rng), Star(64), Path(33), DisjointCliques(5, 8)} {
		perm := randPerm(g.N(), rng)
		h := Relabel(g, perm)
		sameGraphUnderPerm(t, g, h, perm)
		for u := 0; u < h.N(); u++ {
			if !slices.IsSorted(h.Neighbors(u)) {
				t.Fatalf("relabeled neighbor list of %d not sorted", u)
			}
		}
	}
}

func TestRelabelValidatesPerm(t *testing.T) {
	g := Path(5)
	for name, perm := range map[string][]int32{
		"short":     {0, 1, 2},
		"duplicate": {0, 1, 1, 3, 4},
		"range":     {0, 1, 2, 3, 5},
		"negative":  {0, 1, 2, 3, -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s permutation accepted", name)
				}
			}()
			Relabel(g, perm)
		}()
	}
}

func TestOrderingNilSafe(t *testing.T) {
	var ord *Ordering
	for _, u := range []int{0, 7, 1 << 20} {
		if ord.NewID(u) != u || ord.OldID(u) != u {
			t.Fatalf("nil ordering not identity at %d", u)
		}
	}
}

func TestDegreeBucketOrderIsValid(t *testing.T) {
	rng := xrand.New(7)
	// A star with the hub at the HIGHEST id: the hub must be relabeled to
	// the front. (Star(n) itself already has the hub at id 0 and stays
	// identity — covered by TestDegreeBucketOrderIdentity's logic.)
	revStar := NewBuilder(50)
	for u := 0; u < 49; u++ {
		revStar.AddEdge(u, 49)
	}
	for _, g := range []*Graph{
		ChungLu(2000, 2.5, 8, rng),
		Gnp(500, 0.02, rng),
		revStar.Build(),
		cliqueChain(4, 16),
	} {
		ord := DegreeBucketOrder(g)
		if ord == nil {
			t.Fatal("expected a non-identity ordering")
		}
		n := g.N()
		if len(ord.Perm) != n || len(ord.Inv) != n {
			t.Fatalf("map lengths %d/%d, want %d", len(ord.Perm), len(ord.Inv), n)
		}
		for u := 0; u < n; u++ {
			if ord.OldID(ord.NewID(u)) != u {
				t.Fatalf("Inv[Perm[%d]] = %d", u, ord.OldID(ord.NewID(u)))
			}
		}
		sameGraphUnderPerm(t, g, ord.G, ord.Perm)
		// Hubs first: the degree bucket must be non-increasing along the
		// relabeled id axis, so each bucket occupies one contiguous id range
		// (and thus contiguous lane words).
		prev := int(^uint(0) >> 1)
		for i := 0; i < n; i++ {
			b := degreeBucket(g.Degree(ord.OldID(i)))
			if b > prev {
				t.Fatalf("bucket rises at relabeled id %d: %d after %d", i, b, prev)
			}
			prev = b
		}
	}
}

func TestDegreeBucketOrderDeterministic(t *testing.T) {
	g := ChungLu(1500, 2.5, 8, xrand.New(3))
	a, b := DegreeBucketOrder(g), DegreeBucketOrder(g)
	for u := range a.Perm {
		if a.Perm[u] != b.Perm[u] {
			t.Fatalf("perm differs at %d: %d vs %d", u, a.Perm[u], b.Perm[u])
		}
	}
}

func TestDegreeBucketOrderIdentity(t *testing.T) {
	// Uniform degrees put everything in one bucket, and the BFS from vertex 0
	// discovers complete and empty graphs in id order: the order is the
	// identity and no relabeling is built.
	for _, g := range []*Graph{Complete(16), Empty(10), Complete(1)} {
		if ord := DegreeBucketOrder(g); ord != nil {
			t.Fatalf("identity order not detected (n=%d)", g.N())
		}
	}
	if ord := DegreeBucketOrder(Empty(0)); ord != nil {
		t.Fatal("empty graph must have no ordering")
	}
}

func TestOrderingRebind(t *testing.T) {
	rng := xrand.New(5)
	g := Gnp(300, 0.03, rng)
	ord := DegreeBucketOrder(g)
	if ord == nil {
		t.Skip("identity order on this draw")
	}
	// Toggle an edge, rebind the SAME permutation onto the new topology.
	g2 := g.WithEdgeToggled(0, 1)
	ord2 := ord.Rebind(g2)
	if &ord2.Perm[0] != &ord.Perm[0] {
		t.Fatal("Rebind must share the permutation slices")
	}
	sameGraphUnderPerm(t, g2, ord2.G, ord2.Perm)

	defer func() {
		if recover() == nil {
			t.Fatal("Rebind to a different order did not panic")
		}
	}()
	ord.Rebind(Path(10))
}

// Satellite regression: Build must stay incremental and correct across
// repeated AddEdge/Build cycles — the retained edge list is kept sorted and
// deduplicated, only the appended suffix is sorted, and duplicates both
// within the new batch and against earlier builds are dropped.
func TestBuilderIncrementalBuild(t *testing.T) {
	rng := xrand.New(17)
	b := NewBuilder(60)
	fresh := NewBuilder(60)
	type edge [2]int
	var all []edge
	for round := 0; round < 5; round++ {
		for k := 0; k < 40; k++ {
			u, v := rng.Intn(60), rng.Intn(60)
			if u == v {
				continue
			}
			b.AddEdge(u, v)
			all = append(all, edge{u, v})
			// Duplicate a fraction of the batch, and re-add an edge from an
			// earlier build to exercise cross-build dedup.
			if k%7 == 0 {
				b.AddEdge(v, u)
			}
			if k%11 == 0 && len(all) > 40 {
				old := all[rng.Intn(40)]
				b.AddEdge(old[0], old[1])
			}
		}
		got := b.Build()
		fresh = NewBuilder(60)
		for _, e := range all {
			fresh.AddEdge(e[0], e[1])
		}
		want := fresh.Build()
		if got.N() != want.N() || got.M() != want.M() {
			t.Fatalf("round %d: (n,m) = (%d,%d), want (%d,%d)",
				round, got.N(), got.M(), want.N(), want.M())
		}
		for u := 0; u < got.N(); u++ {
			gn, wn := got.Neighbors(u), want.Neighbors(u)
			if len(gn) != len(wn) {
				t.Fatalf("round %d: degree of %d = %d, want %d", round, u, len(gn), len(wn))
			}
			for i := range gn {
				if gn[i] != wn[i] {
					t.Fatalf("round %d: neighbors of %d differ", round, u)
				}
			}
		}
	}
	// A Build with nothing appended must be a pure re-emit.
	again := b.Build()
	if again.M() != fresh.Build().M() {
		t.Fatal("no-op rebuild changed the graph")
	}
}
