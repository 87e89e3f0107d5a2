package graph

// This file implements structural metrics used by the experiments and by the
// (n,p)-good-graph checker: the diameter-two test (property P6),
// common-neighbor statistics (property P5), neighborhood closures and
// subset average degrees.

// DiameterAtMostTwo reports whether every pair of distinct vertices is
// adjacent or has a common neighbor (property P6 of good graphs). It runs in
// O(n·Δ²/64) via per-vertex neighborhood bitmaps, much faster than full BFS
// for the dense graphs where it is true.
func (g *Graph) DiameterAtMostTwo() bool {
	n := g.N()
	if n <= 1 {
		return true
	}
	// mark[v] is true when v is u, a neighbor of u, or a neighbor of a
	// neighbor of u.
	mark := make([]int32, n) // stamp per source, avoids clearing
	for i := range mark {
		mark[i] = -1
	}
	for u := 0; u < n; u++ {
		stamp := int32(u)
		mark[u] = stamp
		for _, v := range g.Neighbors(u) {
			mark[v] = stamp
			for _, w := range g.Neighbors(int(v)) {
				mark[w] = stamp
			}
		}
		for v := 0; v < n; v++ {
			if mark[v] != stamp {
				return false
			}
		}
	}
	return true
}

// MaxCommonNeighbors returns max over all vertex pairs of |N(u) ∩ N(v)|
// (property P5 of good graphs). It counts, for every vertex w, the pairs of
// neighbors of w, in O(Σ_w deg(w)²) time — exact, intended for n up to a few
// thousand at G(n,p) densities. Pairs at distance > 2 trivially share no
// neighbors and are never enumerated.
func (g *Graph) MaxCommonNeighbors() int {
	n := g.N()
	if n < 2 {
		return 0
	}
	// counts[pair] via stamped per-source accumulation: for each u, count
	// two-hop multiplicity to every v > u.
	cnt := make([]int, n)
	stamp := make([]int32, n)
	for i := range stamp {
		stamp[i] = -1
	}
	best := 0
	for u := 0; u < n; u++ {
		su := int32(u)
		for _, w := range g.Neighbors(u) {
			for _, v := range g.Neighbors(int(w)) {
				if int(v) <= u {
					continue
				}
				if stamp[v] != su {
					stamp[v] = su
					cnt[v] = 0
				}
				cnt[v]++
				if cnt[v] > best {
					best = cnt[v]
				}
			}
		}
	}
	return best
}

// NeighborhoodClosure computes N+(S) = S ∪ N(S) and returns it as a boolean
// mask over the vertices.
func (g *Graph) NeighborhoodClosure(s []int) []bool {
	mask := make([]bool, g.N())
	for _, u := range s {
		mask[u] = true
		for _, v := range g.Neighbors(u) {
			mask[v] = true
		}
	}
	return mask
}

// AvgDegreeOfSubset returns the average degree of the induced subgraph G[S]
// where S is given as a vertex list: 2|E(S)|/|S| (0 for empty S).
func (g *Graph) AvgDegreeOfSubset(s []int) float64 {
	if len(s) == 0 {
		return 0
	}
	in := make(map[int]bool, len(s))
	for _, u := range s {
		in[u] = true
	}
	edges := 0
	for _, u := range s {
		for _, v := range g.Neighbors(u) {
			if int(v) > u && in[int(v)] {
				edges++
			}
		}
	}
	return 2 * float64(edges) / float64(len(s))
}

// ISqrt returns the integer square root ⌊√n⌋ (1 for n < 1): the side length
// used to shape "about n vertices" into grid and disjoint-clique families
// by the commands and the experiment harness.
func ISqrt(n int) int {
	s := 1
	for (s+1)*(s+1) <= n {
		s++
	}
	return s
}
