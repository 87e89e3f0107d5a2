package graph

import (
	"fmt"
	"math"

	"ssmis/internal/xrand"
)

// Complete returns the complete graph K_n (Theorem 8's workload). It
// panics before allocating when K_n has more than math.MaxInt32/2 edges.
func Complete(n int) *Graph {
	pairs := n * (n - 1) / 2
	if pairs > maxEdges {
		tooManyEdges()
	}
	start, hi := newRows(n, pairs)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			hi = append(hi, int32(v))
		}
		start[u+1] = int32(len(hi))
	}
	return fill(start, hi)
}

// Empty returns the edgeless graph on n vertices.
func Empty(n int) *Graph {
	return NewBuilder(n).Build()
}

// Path returns the path 0-1-...-(n-1).
func Path(n int) *Graph {
	b := NewBuilder(n)
	for u := 0; u+1 < n; u++ {
		b.AddEdge(u, u+1)
	}
	return b.Build()
}

// Cycle returns the n-cycle (n >= 3).
func Cycle(n int) *Graph {
	if n < 3 {
		panic("graph: Cycle requires n >= 3")
	}
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		b.AddEdge(u, (u+1)%n)
	}
	return b.Build()
}

// Star returns the star K_{1,n-1} with center 0.
func Star(n int) *Graph {
	b := NewBuilder(n)
	for u := 1; u < n; u++ {
		b.AddEdge(0, u)
	}
	return b.Build()
}

// RandomTree returns a uniformly random recursive tree on n vertices: vertex
// i > 0 attaches to a uniform vertex in [0, i). Such trees have expected
// maximum degree Θ(log n) and arboricity 1, the family of Theorem 11.
func RandomTree(n int, rng *xrand.Rand) *Graph {
	b := NewBuilder(n)
	for u := 1; u < n; u++ {
		b.AddEdge(u, rng.Intn(u))
	}
	return b.Build()
}

// UniformLabeledTree returns a uniformly random labeled tree on n vertices,
// sampled via a random Prüfer sequence (n >= 1).
func UniformLabeledTree(n int, rng *xrand.Rand) *Graph {
	if n <= 2 {
		return Path(n)
	}
	prufer := make([]int, n-2)
	for i := range prufer {
		prufer[i] = rng.Intn(n)
	}
	deg := make([]int, n)
	for i := range deg {
		deg[i] = 1
	}
	for _, v := range prufer {
		deg[v]++
	}
	b := NewBuilder(n)
	// ptr/leaf scan (O(n) amortized with the standard two-pointer method).
	ptr := 0
	for deg[ptr] != 1 {
		ptr++
	}
	leaf := ptr
	for _, v := range prufer {
		b.AddEdge(leaf, v)
		deg[v]--
		if deg[v] == 1 && v < ptr {
			leaf = v
		} else {
			ptr++
			for deg[ptr] != 1 {
				ptr++
			}
			leaf = ptr
		}
	}
	b.AddEdge(leaf, n-1)
	return b.Build()
}

// Grid returns the rows×cols grid graph (4-neighborhood). Arboricity 2.
func Grid(rows, cols int) *Graph {
	b := NewBuilder(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.Build()
}

// Torus returns the rows×cols torus (wrap-around grid; rows, cols >= 3).
func Torus(rows, cols int) *Graph {
	if rows < 3 || cols < 3 {
		panic("graph: Torus requires rows, cols >= 3")
	}
	b := NewBuilder(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.AddEdge(id(r, c), id(r, (c+1)%cols))
			b.AddEdge(id(r, c), id((r+1)%rows, c))
		}
	}
	return b.Build()
}

// DisjointCliques returns the disjoint union of count cliques each of size
// size (Remark 9's workload: √n cliques K_{√n}).
func DisjointCliques(count, size int) *Graph {
	b := NewBuilder(count * size)
	for c := 0; c < count; c++ {
		base := c * size
		for u := 0; u < size; u++ {
			for v := u + 1; v < size; v++ {
				b.AddEdge(base+u, base+v)
			}
		}
	}
	return b.Build()
}

// Gnp returns an Erdős–Rényi random graph G(n,p): every pair is an edge
// independently with probability p. For p below a density threshold the
// generator uses geometric skipping and runs in O(n + m) time; above it, it
// enumerates pairs. Either way it walks the upper triangle row by row and
// hands the rows to the CSR fill.
func Gnp(n int, p float64, rng *xrand.Rand) *Graph {
	switch {
	case p < 0 || p > 1 || math.IsNaN(p):
		panic(fmt.Sprintf("graph: Gnp probability %v out of [0,1]", p))
	case p == 0:
		return Empty(n)
	case p == 1:
		return Complete(n)
	}
	total := int64(n) * int64(n-1) / 2
	start, hi := newRows(n, expectedEdges(p*float64(total), total))
	if p <= 0.25 {
		// Geometric skipping over the linearized strict upper triangle:
		// pair index k is (u, u+1+k-rowStart) in the row of u, which
		// covers [rowStart, rowEnd).
		skip := xrand.NewGeom(p)
		u, rowStart, rowEnd := 0, int64(0), int64(n-1)
		k := int64(rng.Geom(skip))
		for k < total {
			for k >= rowEnd {
				u++
				start[u] = int32(len(hi))
				rowStart, rowEnd = rowEnd, rowEnd+int64(n-1-u)
			}
			hi = appendRow(hi, u+1+int(k-rowStart))
			k += 1 + int64(rng.Geom(skip))
		}
		for x := u + 1; x <= n; x++ {
			start[x] = int32(len(hi))
		}
	} else {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Bernoulli(p) {
					hi = appendRow(hi, v)
				}
			}
			start[u+1] = int32(len(hi))
		}
	}
	return fill(start, hi)
}

// expectedEdges is the capacity to reserve for a sum of independent edge
// coins over pairs pairs with the given mean: the mean plus six standard
// deviations, at most pairs and at most maxEdges, so the rows outgrow it
// with negligible probability.
func expectedEdges(mean float64, pairs int64) int {
	return int(min(mean+6*math.Sqrt(mean)+16, float64(pairs), maxEdges))
}

// GnpAvgDegree returns G(n, p) with p chosen so that the expected average
// degree is d, i.e. p = d/(n-1).
func GnpAvgDegree(n int, d float64, rng *xrand.Rand) *Graph {
	if n <= 1 {
		return Empty(n)
	}
	p := d / float64(n-1)
	if p > 1 {
		p = 1
	}
	return Gnp(n, p, rng)
}

// RandomRegular returns a d-regular random simple graph via the
// configuration model with repair: stubs are paired uniformly, invalid pairs
// (self-loops, duplicates) are re-paired in further passes, and any remaining
// degree deficits are repaired by double-edge swaps, which preserve all other
// degrees. In rare pathological cases a couple of vertices may end with
// degree d-1; the graph is always simple. n*d must be even.
func RandomRegular(n, d int, rng *xrand.Rand) *Graph {
	if d < 0 || d >= n {
		panic(fmt.Sprintf("graph: RandomRegular degree %d out of range for n=%d", d, n))
	}
	if n*d%2 != 0 {
		panic("graph: RandomRegular requires n*d even")
	}
	type edge struct{ u, v int32 }
	norm := func(u, v int32) edge {
		if u > v {
			u, v = v, u
		}
		return edge{u, v}
	}
	edgeSet := make(map[edge]bool, n*d/2)
	edgeList := make([]edge, 0, n*d/2)
	deg := make([]int, n)
	addEdge := func(u, v int32) bool {
		if u == v {
			return false
		}
		e := norm(u, v)
		if edgeSet[e] {
			return false
		}
		edgeSet[e] = true
		edgeList = append(edgeList, e)
		deg[u]++
		deg[v]++
		return true
	}

	// Pass 1..k: pair the unmatched stubs; stubs from failed pairs carry
	// over to the next pass.
	stubs := make([]int32, 0, n*d)
	for u := 0; u < n; u++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, int32(u))
		}
	}
	for pass := 0; pass < 200 && len(stubs) > 2; pass++ {
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		leftovers := stubs[:0]
		for i := 0; i+1 < len(stubs); i += 2 {
			u, v := stubs[i], stubs[i+1]
			if !addEdge(u, v) {
				leftovers = append(leftovers, u, v)
			}
		}
		stubs = leftovers
	}

	// Repair remaining deficits with double-edge swaps: to give u and v one
	// more edge each, pick a random existing edge {x,y} with x,y ∉ {u,v},
	// u-x and v-y non-edges, remove it and add {u,x}, {v,y}.
	for attempt := 0; attempt < 100*len(stubs) && len(stubs) >= 2; attempt++ {
		u, v := stubs[len(stubs)-1], stubs[len(stubs)-2]
		if addEdge(u, v) {
			stubs = stubs[:len(stubs)-2]
			continue
		}
		if len(edgeList) == 0 {
			break
		}
		ei := rng.Intn(len(edgeList))
		e := edgeList[ei]
		x, y := e.u, e.v
		if x == u || x == v || y == u || y == v {
			continue
		}
		if edgeSet[norm(u, x)] || edgeSet[norm(v, y)] {
			continue
		}
		delete(edgeSet, e)
		edgeList[ei] = edgeList[len(edgeList)-1]
		edgeList = edgeList[:len(edgeList)-1]
		deg[x]--
		deg[y]--
		addEdge(u, x)
		addEdge(v, y)
		stubs = stubs[:len(stubs)-2]
	}

	b := NewBuilder(n)
	for e := range edgeSet {
		b.AddEdge(int(e.u), int(e.v))
	}
	return b.Build()
}

// BoundedDegeneracyRandom returns a random graph with degeneracy (and hence
// arboricity) at most k: vertex i > 0 connects to min(i, k) uniformly chosen
// earlier vertices without replacement. This is the standard "random k-tree
// relaxation" family used to exercise Theorem 11 beyond trees.
func BoundedDegeneracyRandom(n, k int, rng *xrand.Rand) *Graph {
	if k < 1 {
		panic("graph: BoundedDegeneracyRandom requires k >= 1")
	}
	b := NewBuilder(n)
	picked := make(map[int]bool, k)
	for u := 1; u < n; u++ {
		want := k
		if u < k {
			want = u
		}
		for len(picked) < want {
			picked[rng.Intn(u)] = true
		}
		for v := range picked {
			b.AddEdge(u, v)
			delete(picked, v)
		}
	}
	return b.Build()
}

// Caterpillar returns a caterpillar tree: a spine path of length spine with
// legs pendant leaves attached to every spine vertex. Trees with large
// maximum degree but arboricity 1.
func Caterpillar(spine, legs int) *Graph {
	n := spine + spine*legs
	b := NewBuilder(n)
	for u := 0; u+1 < spine; u++ {
		b.AddEdge(u, u+1)
	}
	next := spine
	for u := 0; u < spine; u++ {
		for l := 0; l < legs; l++ {
			b.AddEdge(u, next)
			next++
		}
	}
	return b.Build()
}

// WattsStrogatz returns a small-world graph: a ring lattice where every
// vertex connects to its k nearest neighbors on each side (2k per vertex),
// with each lattice edge rewired to a uniform random endpoint with
// probability beta. beta = 0 is the pure lattice (high diameter, high
// clustering); beta = 1 approaches a random graph. Classic model for
// ad-hoc/sensor network topologies with shortcuts.
func WattsStrogatz(n, k int, beta float64, rng *xrand.Rand) *Graph {
	if k < 1 || 2*k >= n {
		panic(fmt.Sprintf("graph: WattsStrogatz requires 1 <= k and 2k < n, got n=%d k=%d", n, k))
	}
	if beta < 0 || beta > 1 {
		panic(fmt.Sprintf("graph: WattsStrogatz beta %v outside [0,1]", beta))
	}
	type edge struct{ u, v int32 }
	norm := func(u, v int) edge {
		if u > v {
			u, v = v, u
		}
		return edge{int32(u), int32(v)}
	}
	edges := make(map[edge]bool, n*k)
	for u := 0; u < n; u++ {
		for j := 1; j <= k; j++ {
			edges[norm(u, (u+j)%n)] = true
		}
	}
	// Rewire: for each original lattice edge (u, u+j), with probability
	// beta replace it by (u, w) for uniform w avoiding self-loops and
	// duplicates (skipping the rewire if no valid target is found quickly).
	for u := 0; u < n; u++ {
		for j := 1; j <= k; j++ {
			if !rng.Bernoulli(beta) {
				continue
			}
			old := norm(u, (u+j)%n)
			if !edges[old] {
				continue // already rewired away by the other endpoint
			}
			for attempt := 0; attempt < 16; attempt++ {
				w := rng.Intn(n)
				if w == u {
					continue
				}
				candidate := norm(u, w)
				if edges[candidate] {
					continue
				}
				delete(edges, old)
				edges[candidate] = true
				break
			}
		}
	}
	b := NewBuilder(n)
	for e := range edges {
		b.AddEdge(int(e.u), int(e.v))
	}
	return b.Build()
}

// ChungLu returns a random graph with expected degree sequence following a
// power law with exponent beta (typically 2 < beta < 3) and average degree
// approximately avgDeg: each pair {u,v} is an edge independently with
// probability min(1, w_u·w_v / Σw), where w_u ∝ (u+1)^(-1/(beta-1)) scaled
// to the requested average. Models the skewed degree distributions of real
// sensor/contact networks, in contrast to the concentrated degrees of
// G(n,p).
func ChungLu(n int, beta, avgDeg float64, rng *xrand.Rand) *Graph {
	if n == 0 {
		return Empty(0)
	}
	if beta <= 1 {
		panic(fmt.Sprintf("graph: ChungLu exponent beta=%v must exceed 1", beta))
	}
	if avgDeg < 0 {
		panic("graph: ChungLu negative average degree")
	}
	if avgDeg == 0 {
		return Empty(n)
	}
	w := make([]float64, n)
	sum := 0.0
	exp := -1.0 / (beta - 1)
	for u := 0; u < n; u++ {
		w[u] = math.Pow(float64(u+1), exp)
		sum += w[u]
	}
	// Scale weights so the expected average degree is avgDeg.
	scale := avgDeg * float64(n) / sum
	for u := range w {
		w[u] *= scale
	}
	totalW := avgDeg * float64(n)
	// The expected edge count is below totalW/2, the sum over all pairs of
	// w_u·w_v/totalW.
	start, hi := newRows(n, expectedEdges(totalW/2, int64(n)*int64(n-1)/2))
	// High-weight vertices come first; the weight sequence is decreasing, so
	// for each u the per-pair probability p_uv = w_u·w_v/totalW decreases in
	// v and geometric skipping with the max probability plus rejection keeps
	// generation near O(m).
	for u := 0; u < n; u++ {
		pMax := w[u] * w[u+minInt(1, n-1-u)] / totalW
		if pMax >= 1 {
			// Dense row: enumerate directly.
			for v := u + 1; v < n; v++ {
				p := w[u] * w[v] / totalW
				if p >= 1 || rng.Bernoulli(p) {
					hi = appendRow(hi, v)
				}
			}
		} else if pMax > 0 {
			skip := xrand.NewGeom(pMax)
			v := u + 1 + rng.Geom(skip)
			for v < n {
				// Accept with the true probability relative to the proposal.
				p := w[u] * w[v] / totalW
				if rng.Bernoulli(p / pMax) {
					hi = appendRow(hi, v)
				}
				v += 1 + rng.Geom(skip)
			}
		}
		start[u+1] = int32(len(hi))
	}
	return fill(start, hi)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
