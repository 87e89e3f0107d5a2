package graph

// Exact structural references the generator and metric tests compare
// against: BFS distances, connected components, the exact diameter (the
// reference for DiameterAtMostTwo) and the degeneracy (the bound
// BoundedDegeneracyRandom promises). No program needs them, so they live
// with the tests.

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
