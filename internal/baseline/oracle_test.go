package baseline

import (
	"fmt"
	"testing"

	"ssmis/internal/graph"
)

// checkGreedyMISCompatible verifies that a set claimed to be the greedy MIS
// over a given vertex order really is: processing vertices in order, a
// vertex is in the set iff none of its earlier neighbors is.
func checkGreedyMISCompatible(g *graph.Graph, order []int, inSet func(u int) bool) error {
	if len(order) != g.N() {
		return fmt.Errorf("order length %d != n %d", len(order), g.N())
	}
	pos := make([]int, g.N())
	for i, u := range order {
		pos[u] = i
	}
	for _, u := range order {
		expect := true
		for _, v := range g.Neighbors(u) {
			if pos[v] < pos[u] && inSet(int(v)) {
				expect = false
				break
			}
		}
		if expect != inSet(u) {
			return fmt.Errorf("vertex %d greedy-inconsistent (want in-set=%v)", u, expect)
		}
	}
	return nil
}

func TestCheckGreedyMISCompatible(t *testing.T) {
	mask := func(vals ...int) func(int) bool {
		m := map[int]bool{}
		for _, v := range vals {
			m[v] = true
		}
		return func(u int) bool { return m[u] }
	}
	g := graph.Path(4)
	order := []int{0, 1, 2, 3}
	// Greedy over 0,1,2,3 gives {0, 2}... 3 has earlier neighbor 2 in set -> out.
	if err := checkGreedyMISCompatible(g, order, mask(0, 2)); err != nil {
		t.Fatalf("greedy set flagged: %v", err)
	}
	if err := checkGreedyMISCompatible(g, order, mask(1, 3)); err == nil {
		t.Fatal("non-greedy set accepted")
	}
	if err := checkGreedyMISCompatible(g, []int{0}, mask(0)); err == nil {
		t.Fatal("short order accepted")
	}
}
