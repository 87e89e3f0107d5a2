package goodgraph

// Exhaustive verification of properties (P1)-(P4) for small graphs by
// enumerating every subset (P1, P2, P4) and every disjoint triple (P3).
// This grounds the sampled checker: a graph the exhaustive checker accepts
// can never be rejected by the sampler, and planted violations the sampler
// might miss are found with certainty — the tests quantify both directions.
// It is the exact oracle of those tests and nothing else calls it, so it
// lives with them.

import (
	"fmt"
	"math"

	"ssmis/internal/graph"
)

// maxExhaustiveN bounds the enumeration; P3's 4^n disjoint-triple scan is
// the binding constraint.
const maxExhaustiveN = 9

// ExhaustiveCheck verifies (P1)-(P6) of Definition 17 exactly. It panics if
// the graph is too large to enumerate (n > 9).
func ExhaustiveCheck(g *graph.Graph, p float64) *Report {
	n := g.N()
	if n > maxExhaustiveN {
		panic(fmt.Sprintf("goodgraph: ExhaustiveCheck on n=%d > %d", n, maxExhaustiveN))
	}
	r := &Report{N: n, P: p, SamplesPerProperty: -1}
	lnN := math.Log(float64(n))
	r.Pass[1], r.Detail[1] = exhaustiveP1(g, p, lnN)
	r.Pass[2], r.Detail[2] = exhaustiveP2(g, p, lnN)
	r.Pass[3], r.Detail[3] = exhaustiveP3(g, p, lnN)
	r.Pass[4], r.Detail[4] = exhaustiveP4(g, p, lnN)
	r.Pass[5], r.Detail[5] = checkP5(g, p, lnN)
	r.Pass[6], r.Detail[6] = checkP6(g, p, lnN)
	return r
}

// subsetMembers expands a bitmask into a vertex list.
func subsetMembers(mask uint32, n int) []int {
	var out []int
	for u := 0; u < n; u++ {
		if mask&(1<<uint(u)) != 0 {
			out = append(out, u)
		}
	}
	return out
}

func exhaustiveP1(g *graph.Graph, p, lnN float64) (bool, string) {
	n := g.N()
	for mask := uint32(1); mask < 1<<uint(n); mask++ {
		s := subsetMembers(mask, n)
		bound := math.Max(8*p*float64(len(s)), 4*lnN)
		if d := g.AvgDegreeOfSubset(s); d > bound {
			return false, fmt.Sprintf("P1: subset %v has avg degree %.2f > %.2f", s, d, bound)
		}
	}
	return true, ""
}

func exhaustiveP2(g *graph.Graph, p, lnN float64) (bool, string) {
	if p <= 0 {
		return true, ""
	}
	n := g.N()
	minSize := int(math.Ceil(40 * lnN / p))
	for mask := uint32(1); mask < 1<<uint(n); mask++ {
		s := subsetMembers(mask, n)
		if len(s) < minSize {
			continue
		}
		inS := mask
		thresh := p * float64(len(s)) / 2
		low := 0
		for u := 0; u < n; u++ {
			if inS&(1<<uint(u)) != 0 {
				continue
			}
			cnt := 0
			for _, v := range g.Neighbors(u) {
				if inS&(1<<uint(v)) != 0 {
					cnt++
				}
			}
			if float64(cnt) < thresh {
				low++
			}
		}
		if low > len(s)/2 {
			return false, fmt.Sprintf("P2: subset %v has %d low-degree outsiders", s, low)
		}
	}
	return true, ""
}

func exhaustiveP3(g *graph.Graph, p, lnN float64) (bool, string) {
	if p <= 0 {
		return true, ""
	}
	n := g.N()
	slack := 8 * lnN * lnN / p
	// Assign each vertex to S(1), T(2), I(3) or none(0): 4^n assignments;
	// for n <= 9 that is at most 262144.
	total := 1
	for i := 0; i < n; i++ {
		total *= 4
	}
	for code := 0; code < total; code++ {
		var sSet, tSet, iSet []int
		c := code
		for u := 0; u < n; u++ {
			switch c & 3 {
			case 1:
				sSet = append(sSet, u)
			case 2:
				tSet = append(tSet, u)
			case 3:
				iSet = append(iSet, u)
			}
			c >>= 2
		}
		if len(sSet) < 2*len(tSet) || len(tSet) == 0 {
			continue
		}
		// (S ∪ T) ∩ N(I) must be empty.
		nI := g.NeighborhoodClosure(iSet)
		for _, u := range iSet {
			nI[u] = true
		}
		violatesPremise := false
		for _, u := range append(append([]int(nil), sSet...), tSet...) {
			// N(I) excludes I itself; membership in I is already excluded
			// by the disjoint assignment, so check closure minus I.
			inI := false
			for _, w := range iSet {
				if w == u {
					inI = true
					break
				}
			}
			if !inI && nI[u] {
				violatesPremise = true
				break
			}
		}
		if violatesPremise {
			continue
		}
		nT := countExclusiveNeighbors(g, tSet, append(append([]int(nil), sSet...), iSet...))
		nS := countExclusiveNeighbors(g, sSet, iSet)
		if float64(nT) > float64(nS)+slack {
			return false, fmt.Sprintf("P3: S=%v T=%v I=%v: %d > %d + %.1f", sSet, tSet, iSet, nT, nS, slack)
		}
	}
	return true, ""
}

// countExclusiveNeighbors computes |N(set) \ N+(excl ∪ set)| — the vertices
// adjacent to set but outside set, excl, and excl's neighborhoods.
func countExclusiveNeighbors(g *graph.Graph, set, excl []int) int {
	n := g.N()
	banned := make([]bool, n)
	for _, u := range set {
		banned[u] = true
	}
	for _, u := range excl {
		banned[u] = true
		for _, v := range g.Neighbors(u) {
			banned[v] = true
		}
	}
	seen := make([]bool, n)
	c := 0
	for _, u := range set {
		for _, v := range g.Neighbors(u) {
			if !banned[v] && !seen[v] {
				seen[v] = true
				c++
			}
		}
	}
	return c
}

func exhaustiveP4(g *graph.Graph, p, lnN float64) (bool, string) {
	if p <= 0 {
		return true, ""
	}
	n := g.N()
	maxT := int(lnN / p)
	if maxT < 1 {
		return true, ""
	}
	for sMask := uint32(1); sMask < 1<<uint(n); sMask++ {
		for tMask := uint32(1); tMask < 1<<uint(n); tMask++ {
			if sMask&tMask != 0 {
				continue
			}
			s := subsetMembers(sMask, n)
			t := subsetMembers(tMask, n)
			if len(s) < len(t) || len(t) > maxT {
				continue
			}
			edges := 0
			for _, u := range t {
				for _, v := range g.Neighbors(u) {
					if sMask&(1<<uint(v)) != 0 {
						edges++
					}
				}
			}
			if bound := 6 * float64(len(s)) * lnN; float64(edges) > bound {
				return false, fmt.Sprintf("P4: S=%v T=%v |E|=%d > %.1f", s, t, edges, bound)
			}
		}
	}
	return true, ""
}
