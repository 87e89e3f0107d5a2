// Package graph provides the graph substrate for the ssmis module: an
// immutable compressed-sparse-row (CSR) graph type, a mutable builder,
// generators for every graph family the paper's analysis touches (complete
// graphs, Erdős–Rényi G(n,p), trees and other bounded-arboricity families,
// disjoint unions of cliques, ...), and structural metrics (components,
// diameter, degeneracy, common neighbors) needed by the experiments and by
// the (n,p)-good-graph checker.
//
// All graphs are simple (no self-loops, no parallel edges) and undirected,
// matching the paper's setting.
package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Graph is an immutable simple undirected graph in CSR form. Vertices are
// integers in [0, N()).
type Graph struct {
	offsets []int   // len n+1; adjacency of u is adj[offsets[u]:offsets[u+1]]
	adj     []int32 // concatenated sorted neighbor lists
	maxDeg  int     // memoized MaxDegree (immutable graph, computed at build)
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.offsets) - 1 }

// M returns the number of (undirected) edges.
func (g *Graph) M() int { return len(g.adj) / 2 }

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u int) int { return g.offsets[u+1] - g.offsets[u] }

// Neighbors returns the sorted neighbor list of u as a shared, read-only
// slice. Callers must not modify it.
func (g *Graph) Neighbors(u int) []int32 {
	return g.adj[g.offsets[u]:g.offsets[u+1]]
}

// HasEdge reports whether {u, v} is an edge, in O(log deg(u)).
func (g *Graph) HasEdge(u, v int) bool {
	if u == v {
		return false
	}
	nbrs := g.Neighbors(u)
	i := sort.Search(len(nbrs), func(i int) bool { return int(nbrs[i]) >= v })
	return i < len(nbrs) && int(nbrs[i]) == v
}

// MaxDegree returns the maximum vertex degree (0 for the empty graph).
// The value is memoized at construction — the graph is immutable, and the
// engine's counter-width selection, restartmis, and both CLIs' banner lines
// all ask repeatedly.
func (g *Graph) MaxDegree() int { return g.maxDeg }

// Edges calls fn once per undirected edge {u, v} with u < v.
func (g *Graph) Edges(fn func(u, v int)) {
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if int(v) > u {
				fn(u, int(v))
			}
		}
	}
}

// Builder accumulates edges and produces an immutable Graph. Self-loops are
// rejected immediately by AddEdge; duplicate edges are tolerated and
// deduplicated by Build. The zero value is unusable; create with NewBuilder.
type Builder struct {
	n      int
	edges  [][2]int32
	sorted int // leading edges already sorted and deduplicated by a prior Build
}

// NewBuilder returns a builder for a graph on n vertices. Vertex ids are
// stored as int32, so n may not exceed math.MaxInt32.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("graph: vertex count %d exceeds math.MaxInt32", n))
	}
	return &Builder{n: n}
}

// reserve grows the edge list's capacity for m more edges, so a generator
// that knows its expected edge count appends without regrowing.
func (b *Builder) reserve(m int) {
	b.edges = slices.Grow(b.edges, m)
}

// N returns the number of vertices the builder was created with.
func (b *Builder) N() int { return b.n }

// AddEdge records the undirected edge {u, v}. It panics on self-loops or
// out-of-range endpoints. Duplicate edges are tolerated and deduplicated by
// Build.
func (b *Builder) AddEdge(u, v int) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at vertex %d", u))
	}
	if u < 0 || v < 0 || u >= b.n || v >= b.n {
		panic(fmt.Sprintf("graph: edge {%d,%d} out of range [0,%d)", u, v, b.n))
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, [2]int32{int32(u), int32(v)})
}

// Build produces the immutable CSR graph. The builder remains usable (more
// edges may be added and Build called again); the retained edge list stays
// sorted and deduplicated across calls, so a repeat Build only sorts the
// edges appended since the previous one and merges them in — O(k log k + m)
// for k new edges instead of re-sorting all m. Edges appended in increasing
// (u, v) order with u < v, as every row-major generator and every
// WriteEdgeList file produce them, are not sorted at all.
func (b *Builder) Build() *Graph {
	b.normalize()

	// pos counts degrees, then serves as each vertex's fill cursor.
	pos := make([]int32, b.n)
	for _, e := range b.edges {
		pos[e[0]]++
		pos[e[1]]++
	}
	offsets := make([]int, b.n+1)
	maxDeg := 0
	for u, d := range pos {
		offsets[u+1] = offsets[u] + int(d)
		maxDeg = max(maxDeg, int(d))
	}
	if offsets[b.n] > math.MaxInt32 {
		panic(fmt.Sprintf("graph: %d adjacency entries exceed math.MaxInt32", offsets[b.n]))
	}
	for u := range pos {
		pos[u] = int32(offsets[u])
	}
	adj := make([]int32, offsets[b.n])
	// The edges are sorted, so every list fills in increasing order: a
	// vertex x receives its neighbours below x, as the larger endpoint of
	// their rows, before its own row appends those above x.
	for _, e := range b.edges {
		u, v := e[0], e[1]
		adj[pos[u]] = v
		pos[u]++
		adj[pos[v]] = u
		pos[v]++
	}
	return &Graph{offsets: offsets, adj: adj, maxDeg: maxDeg}
}

// edgeKey packs an edge into one integer that orders edges
// lexicographically; both endpoints are non-negative.
func edgeKey(e [2]int32) uint64 { return uint64(e[0])<<32 | uint64(e[1]) }

// normalize brings b.edges to sorted, deduplicated form. Edges up to
// b.sorted are already normalized by the previous Build. An appended
// suffix that is strictly increasing and lies above the prefix is already
// normalized too; otherwise only the suffix is sorted, then the two sorted
// runs are merged with duplicates dropped. A Build with nothing appended
// does no sorting at all.
func (b *Builder) normalize() {
	tail := b.edges[b.sorted:]
	above := b.sorted == 0 || len(tail) == 0 || edgeKey(tail[0]) > edgeKey(b.edges[b.sorted-1])
	if !above || !strictlyIncreasing(tail) {
		b.sortTail(tail)
	}
	b.sorted = len(b.edges)
}

func strictlyIncreasing(es [][2]int32) bool {
	for i := 1; i < len(es); i++ {
		if edgeKey(es[i]) <= edgeKey(es[i-1]) {
			return false
		}
	}
	return true
}

// sortTail sorts the appended suffix and merges it into the normalized
// prefix, dropping duplicates within the suffix and against the prefix.
func (b *Builder) sortTail(tail [][2]int32) {
	slices.SortFunc(tail, func(a, c [2]int32) int { return cmp.Compare(edgeKey(a), edgeKey(c)) })
	if b.sorted == 0 {
		// First build: just drop adjacent duplicates in place.
		b.edges = slices.Compact(b.edges)
		return
	}
	head := b.edges[:b.sorted]
	merged := make([][2]int32, 0, len(b.edges))
	i, j := 0, 0
	for i < len(head) && j < len(tail) {
		switch {
		case head[i] == tail[j]:
			j++
		case edgeKey(head[i]) < edgeKey(tail[j]):
			merged = append(merged, head[i])
			i++
		default:
			if len(merged) == 0 || merged[len(merged)-1] != tail[j] {
				merged = append(merged, tail[j])
			}
			j++
		}
	}
	merged = append(merged, head[i:]...)
	for ; j < len(tail); j++ {
		if len(merged) == 0 || merged[len(merged)-1] != tail[j] {
			merged = append(merged, tail[j])
		}
	}
	b.edges = merged
}

// FromEdges builds a graph on n vertices from an explicit edge list.
func FromEdges(n int, edges [][2]int) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}
