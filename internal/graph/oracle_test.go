package graph

import (
	"math"
	"slices"

	"ssmis/internal/xrand"
)

// Exact references the construction, generator and metric tests compare
// against: the literal CSR of an edge list and the G(n,p) and Chung-Lu
// edge walks as plain pair lists (the references for fill and the row
// emitters), BFS distances, connected components, the exact diameter (the
// reference for DiameterAtMostTwo) and the degeneracy (the bound
// BoundedDegeneracyRandom promises). No program needs them, so they live
// with the tests.

// referenceGraph is the CSR of an edge list built the literal way: every
// vertex collects its neighbours in a slice of its own, each slice is
// sorted and deduplicated, and the slices are concatenated.
func referenceGraph(n int, edges [][2]int32) *Graph {
	nbrs := make([][]int32, n)
	for _, e := range edges {
		nbrs[e[0]] = append(nbrs[e[0]], e[1])
		nbrs[e[1]] = append(nbrs[e[1]], e[0])
	}
	g := &Graph{offsets: make([]int, n+1), adj: make([]int32, 0, 2*len(edges))}
	for u, l := range nbrs {
		slices.Sort(l)
		l = slices.Compact(l)
		g.adj = append(g.adj, l...)
		g.offsets[u+1] = len(g.adj)
		g.maxDeg = max(g.maxDeg, len(l))
	}
	return g
}

// referenceGnpEdges draws G(n,p) for 0 < p < 1 with Gnp's walk and coins,
// emitting every edge as a pair.
func referenceGnpEdges(n int, p float64, rng *xrand.Rand) [][2]int32 {
	var edges [][2]int32
	total := int64(n) * int64(n-1) / 2
	if p <= 0.25 {
		skip := xrand.NewGeom(p)
		u, rowStart, rowEnd := 0, int64(0), int64(n-1)
		for k := int64(rng.Geom(skip)); k < total; k += 1 + int64(rng.Geom(skip)) {
			for k >= rowEnd {
				u++
				rowStart, rowEnd = rowEnd, rowEnd+int64(n-1-u)
			}
			edges = append(edges, [2]int32{int32(u), int32(u + 1 + int(k-rowStart))})
		}
		return edges
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Bernoulli(p) {
				edges = append(edges, [2]int32{int32(u), int32(v)})
			}
		}
	}
	return edges
}

// referenceChungLuEdges draws ChungLu(n, beta, avgDeg) for n, avgDeg > 0
// with its weights, walk and coins, emitting every edge as a pair. It also
// returns how many rows were dense (pMax ≥ 1) and enumerated.
func referenceChungLuEdges(n int, beta, avgDeg float64, rng *xrand.Rand) (edges [][2]int32, dense int) {
	w := make([]float64, n)
	sum := 0.0
	exp := -1.0 / (beta - 1)
	for u := 0; u < n; u++ {
		w[u] = math.Pow(float64(u+1), exp)
		sum += w[u]
	}
	scale := avgDeg * float64(n) / sum
	for u := range w {
		w[u] *= scale
	}
	totalW := avgDeg * float64(n)
	for u := 0; u < n; u++ {
		pMax := w[u] * w[u+min(1, n-1-u)] / totalW
		if pMax >= 1 {
			dense++
			for v := u + 1; v < n; v++ {
				p := w[u] * w[v] / totalW
				if p >= 1 || rng.Bernoulli(p) {
					edges = append(edges, [2]int32{int32(u), int32(v)})
				}
			}
			continue
		}
		if pMax <= 0 {
			continue
		}
		skip := xrand.NewGeom(pMax)
		for v := u + 1 + rng.Geom(skip); v < n; v += 1 + rng.Geom(skip) {
			if rng.Bernoulli(w[u] * w[v] / totalW / pMax) {
				edges = append(edges, [2]int32{int32(u), int32(v)})
			}
		}
	}
	return edges, dense
}

// BFS returns the distance from src to every vertex (-1 if unreachable).
func (g *Graph) BFS(src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int32{int32(src)}
	for len(queue) > 0 {
		u := int(queue[0])
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// ConnectedComponents returns a component id per vertex and the number of
// components. Ids are assigned in order of discovery from vertex 0.
func (g *Graph) ConnectedComponents() (comp []int, count int) {
	comp = make([]int, g.N())
	for i := range comp {
		comp[i] = -1
	}
	var queue []int32
	for src := 0; src < g.N(); src++ {
		if comp[src] != -1 {
			continue
		}
		comp[src] = count
		queue = append(queue[:0], int32(src))
		for len(queue) > 0 {
			u := int(queue[0])
			queue = queue[1:]
			for _, v := range g.Neighbors(u) {
				if comp[v] == -1 {
					comp[v] = count
					queue = append(queue, v)
				}
			}
		}
		count++
	}
	return comp, count
}

// Connected reports whether the graph is connected (true for n <= 1).
func (g *Graph) Connected() bool {
	_, c := g.ConnectedComponents()
	return c <= 1
}

// Diameter returns the exact diameter via all-pairs BFS, or -1 if the graph
// is disconnected or empty. O(n·m); intended for experiment-scale graphs.
func (g *Graph) Diameter() int {
	if g.N() == 0 {
		return -1
	}
	diam := 0
	for u := 0; u < g.N(); u++ {
		dist := g.BFS(u)
		for _, d := range dist {
			if d == -1 {
				return -1
			}
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}

// DegeneracyOrdering returns the degeneracy d of the graph and an elimination
// ordering in which every vertex has at most d neighbors appearing later.
// Uses the linear-time bucket-queue peeling algorithm.
func (g *Graph) DegeneracyOrdering() (degeneracy int, order []int) {
	n := g.N()
	deg := make([]int, n)
	maxDeg := 0
	for u := 0; u < n; u++ {
		deg[u] = g.Degree(u)
		if deg[u] > maxDeg {
			maxDeg = deg[u]
		}
	}
	// Bucket queue over current degrees.
	buckets := make([][]int32, maxDeg+1)
	for u := 0; u < n; u++ {
		buckets[deg[u]] = append(buckets[deg[u]], int32(u))
	}
	removed := make([]bool, n)
	order = make([]int, 0, n)
	cur := 0
	for len(order) < n {
		// The minimum degree can drop by at most 1 per removal; rewind one
		// step then scan forward.
		if cur > 0 {
			cur--
		}
		for cur <= maxDeg && len(buckets[cur]) == 0 {
			cur++
		}
		// Pop a vertex whose recorded bucket is still accurate.
		bucket := buckets[cur]
		u := int(bucket[len(bucket)-1])
		buckets[cur] = bucket[:len(bucket)-1]
		if removed[u] || deg[u] != cur {
			continue // stale entry
		}
		removed[u] = true
		order = append(order, u)
		if cur > degeneracy {
			degeneracy = cur
		}
		for _, v := range g.Neighbors(u) {
			if !removed[v] {
				deg[v]--
				buckets[deg[v]] = append(buckets[deg[v]], v)
			}
		}
	}
	return degeneracy, order
}

// Degeneracy returns only the degeneracy number.
func (g *Graph) Degeneracy() int {
	d, _ := g.DegeneracyOrdering()
	return d
}
