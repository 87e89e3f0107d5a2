package baseline

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"ssmis/internal/graph"
	"ssmis/internal/verify"
	"ssmis/internal/xrand"
)

func TestLubyProducesMIS(t *testing.T) {
	rng := xrand.New(1)
	families := map[string]*graph.Graph{
		"single":   graph.Empty(1),
		"edgeless": graph.Empty(10),
		"path":     graph.Path(40),
		"clique":   graph.Complete(50),
		"star":     graph.Star(30),
		"gnp":      graph.Gnp(200, 0.05, rng),
		"tree":     graph.RandomTree(150, rng),
	}
	for name, g := range families {
		res := Luby(g, 7)
		if err := misBools(g, res.InMIS); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if g.N() > 0 && res.Rounds == 0 {
			t.Errorf("%s: zero rounds", name)
		}
	}
}

func TestPermutationGreedyProducesMIS(t *testing.T) {
	rng := xrand.New(2)
	families := map[string]*graph.Graph{
		"path":   graph.Path(40),
		"clique": graph.Complete(50),
		"gnp":    graph.Gnp(200, 0.05, rng),
	}
	for name, g := range families {
		res := PermutationGreedy(g, 9)
		if err := misBools(g, res.InMIS); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestLubyCliqueOneRoundish(t *testing.T) {
	// On a clique, the global minimum joins in round 1 and everyone else
	// retires: always exactly 1 round.
	res := Luby(graph.Complete(100), 3)
	if res.Rounds != 1 {
		t.Fatalf("Luby on K_100 took %d rounds, want 1", res.Rounds)
	}
	count := 0
	for _, in := range res.InMIS {
		if in {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("clique MIS size %d, want 1", count)
	}
}

func TestLubyLogarithmicRounds(t *testing.T) {
	// O(log n) w.h.p.: loose upper check at one size.
	rng := xrand.New(4)
	g := graph.Gnp(2000, 0.005, rng)
	worst := 0
	for seed := uint64(0); seed < 10; seed++ {
		if r := Luby(g, seed).Rounds; r > worst {
			worst = r
		}
	}
	if bound := int(6 * math.Log2(2000)); worst > bound {
		t.Fatalf("Luby worst rounds %d > %d", worst, bound)
	}
}

func TestLubyRandomBitsAccounting(t *testing.T) {
	g := graph.Complete(10)
	res := Luby(g, 5)
	// Round 1: all 10 vertices draw 64 bits.
	if res.RandomBits != 640 {
		t.Fatalf("RandomBits = %d, want 640", res.RandomBits)
	}
}

func TestGreedyMIS(t *testing.T) {
	g := graph.Path(5)
	mis1 := GreedyMIS(g, nil)
	want := []bool{true, false, true, false, true}
	for i := range want {
		if mis1[i] != want[i] {
			t.Fatalf("GreedyMIS natural order = %v, want %v", mis1, want)
		}
	}
	mis2 := GreedyMIS(g, []int{1, 3, 0, 2, 4})
	if !mis2[1] || !mis2[3] || mis2[0] || mis2[2] || mis2[4] {
		t.Fatalf("GreedyMIS custom order = %v", mis2)
	}
	if err := misBools(g, mis2); err != nil {
		t.Fatal(err)
	}
}

func TestPermutationGreedyMatchesSequentialGreedy(t *testing.T) {
	// The parallel permutation greedy must compute the same set as the
	// sequential greedy over that permutation. We reconstruct the
	// permutation from the same seed.
	rng := xrand.New(6)
	for trial := 0; trial < 20; trial++ {
		g := graph.Gnp(80, 0.08, rng.Split(uint64(trial)))
		seed := uint64(trial)
		res := PermutationGreedy(g, seed)
		perm := xrand.New(seed).Perm(g.N())
		seq := GreedyMIS(g, perm)
		for u := range seq {
			if seq[u] != res.InMIS[u] {
				t.Fatalf("trial %d: parallel and sequential greedy differ at %d", trial, u)
			}
		}
		if err := checkGreedyMISCompatible(g, perm, func(u int) bool { return res.InMIS[u] }); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// Property: both baselines always produce an MIS on random graphs.
func TestBaselinesMISProperty(t *testing.T) {
	master := xrand.New(7)
	f := func(seed uint64) bool {
		r := master.Split(seed)
		n := 2 + r.Intn(60)
		g := graph.Gnp(n, r.Float64()*0.4, r)
		return misBools(g, Luby(g, seed).InMIS) == nil &&
			misBools(g, PermutationGreedy(g, seed).InMIS) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLubyDeterministic(t *testing.T) {
	g := graph.Gnp(100, 0.05, xrand.New(8))
	a, b := Luby(g, 42), Luby(g, 42)
	if a.Rounds != b.Rounds {
		t.Fatal("Luby nondeterministic")
	}
	for u := range a.InMIS {
		if a.InMIS[u] != b.InMIS[u] {
			t.Fatal("Luby sets differ across identical runs")
		}
	}
}

// misBools is verify.MIS for a []bool vertex set.
func misBools(g *graph.Graph, s []bool) error {
	if len(s) != g.N() {
		return fmt.Errorf("mask length %d != graph order %d", len(s), g.N())
	}
	return verify.MIS(g, func(u int) bool { return s[u] })
}
