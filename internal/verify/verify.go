// Package verify provides validity checkers for the configurations the MIS
// processes produce: independence, maximality (domination), and the paper's
// stability notions. Every experiment run and most tests end with one of
// these checks, so they are written to return rich errors identifying the
// first violated constraint.
package verify

import (
	"fmt"

	"ssmis/internal/bitset"
	"ssmis/internal/graph"
)

// Independent reports whether no two vertices of the set (given as a mask
// over g's vertices) are adjacent, returning the first offending edge
// otherwise.
func Independent(g *graph.Graph, inSet func(u int) bool) error {
	for u := 0; u < g.N(); u++ {
		if !inSet(u) {
			continue
		}
		for _, v := range g.Neighbors(u) {
			if int(v) > u && inSet(int(v)) {
				return fmt.Errorf("verify: independence violated by edge {%d,%d}", u, v)
			}
		}
	}
	return nil
}

// Maximal reports whether every vertex outside the set has a neighbor inside
// it (the set is dominating), returning the first uncovered vertex otherwise.
// Together with Independent this certifies an MIS. Coverage is marked from
// the set's side, each set vertex covering itself and its neighbours, so
// the check costs O(n + Σ_{u∈I} deg u): O(n) on a clique, whose MIS is one
// vertex.
func Maximal(g *graph.Graph, inSet func(u int) bool) error {
	covered := make([]bool, g.N())
	for u := range covered {
		if !inSet(u) {
			continue
		}
		covered[u] = true
		for _, v := range g.Neighbors(u) {
			covered[v] = true
		}
	}
	for u, c := range covered {
		if !c {
			return fmt.Errorf("verify: maximality violated at vertex %d (no neighbor in set)", u)
		}
	}
	return nil
}

// MIS reports whether the set is a maximal independent set of g.
func MIS(g *graph.Graph, inSet func(u int) bool) error {
	if err := Independent(g, inSet); err != nil {
		return err
	}
	return Maximal(g, inSet)
}

// StableBlack returns the set I of vertices that are black with no black
// neighbor — the paper's monotone core of stable vertices (I_t).
func StableBlack(g *graph.Graph, black func(u int) bool) *bitset.Set {
	out := bitset.New(g.N())
	for u := 0; u < g.N(); u++ {
		if !black(u) {
			continue
		}
		hasBlackNbr := false
		for _, v := range g.Neighbors(u) {
			if black(int(v)) {
				hasBlackNbr = true
				break
			}
		}
		if !hasBlackNbr {
			out.Add(u)
		}
	}
	return out
}

// Unstable returns V_t = V \ N+(I_t): the vertices that are neither stable
// black nor adjacent to a stable black vertex.
func Unstable(g *graph.Graph, black func(u int) bool) *bitset.Set {
	stable := StableBlack(g, black)
	out := bitset.New(g.N())
	out.Fill()
	stable.ForEach(func(u int) {
		out.Remove(u)
		for _, v := range g.Neighbors(u) {
			out.Remove(int(v))
		}
	})
	return out
}
