// Package graph provides the graph substrate for the ssmis module: an
// immutable compressed-sparse-row (CSR) graph type, a mutable builder,
// generators for every graph family the paper's analysis touches (complete
// graphs, Erdős–Rényi G(n,p), trees and other bounded-arboricity families,
// disjoint unions of cliques, ...), topology edits, relabeling, and the
// metrics the (n,p)-good-graph checker and the experiments read (common
// neighbours, the diameter-two test, subset degrees).
//
// All graphs are simple (no self-loops, no parallel edges) and undirected,
// matching the paper's setting.
package graph

import (
	"fmt"
	"math"
	"math/bits"
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
	n     int
	edges [][2]int32
}

// NewBuilder returns a builder for a graph on n vertices. Vertex ids are
// stored as int32, so n may not exceed math.MaxInt32.
func NewBuilder(n int) *Builder {
	checkOrder(n)
	return &Builder{n: n}
}

// checkOrder panics unless n is a vertex count: vertex ids are int32.
func checkOrder(n int) {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("graph: vertex count %d exceeds math.MaxInt32", n))
	}
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

// Build produces the immutable CSR graph of the edges added so far. The
// builder remains usable, and each Build is a pure function of its edges.
// Edges added in strictly increasing (u, v) order, as every row-major
// generator and every WriteEdgeList file add them, are read off as upper
// rows directly; any other order is grouped into rows by a counting sort
// on the lower endpoint, and each row is then sorted and deduplicated.
// Build panics when more than math.MaxInt32/2 edges were added.
func (b *Builder) Build() *Graph {
	if len(b.edges) > maxEdges {
		tooManyEdges()
	}
	start, hi := make([]int32, b.n+1), make([]int32, len(b.edges))
	if !increasingRows(b.edges, start, hi) {
		clear(start)
		hi = sortedRows(b.edges, start, hi)
	}
	return fill(start, hi)
}

// edgeKey packs an edge into one integer that orders edges
// lexicographically; both endpoints are non-negative.
func edgeKey(e [2]int32) uint64 { return uint64(e[0])<<32 | uint64(e[1]) }

// increasingRows reads strictly increasing edges off as upper rows into
// start and hi. At the first edge that is not above its predecessor it
// stops and reports false, with start and hi partly written.
func increasingRows(edges [][2]int32, start, hi []int32) bool {
	x := int32(0) // the rows below x are closed
	for i, e := range edges {
		if i > 0 && edgeKey(e) <= edgeKey(edges[i-1]) {
			return false
		}
		for ; x < e[0]; x++ {
			start[x+1] = int32(i)
		}
		hi[i] = e[1]
	}
	for n := int32(len(start) - 1); x < n; x++ {
		start[x+1] = int32(len(edges))
	}
	return true
}

// sortedRows groups the edges into upper rows by a counting sort on their
// lower endpoints, into a zeroed start and into hi, then sorts each row and
// drops its duplicates in place. It returns hi cut to the distinct edges.
func sortedRows(edges [][2]int32, start, hi []int32) []int32 {
	n := len(start) - 1
	for _, e := range edges {
		start[e[0]+1]++
	}
	for x := 1; x <= n; x++ {
		start[x] += start[x-1]
	}
	// start[x] is the cursor of row x, and ends at the row's end.
	for _, e := range edges {
		hi[start[e[0]]] = e[1]
		start[e[0]]++
	}
	w, lo := int32(0), int32(0)
	for x := 0; x < n; x++ {
		end := start[x]
		row := hi[lo:end]
		slices.Sort(row)
		start[x] = w
		w += int32(copy(hi[w:], slices.Compact(row)))
		lo = end
	}
	start[n] = w
	return hi[:w]
}

// maxEdges is the most edges a graph holds: its 2m adjacency entries, and
// so its int32 row starts, must fit in int32.
const maxEdges = math.MaxInt32 / 2

func tooManyEdges() {
	panic(fmt.Sprintf("graph: more than %d edges; 2m would exceed math.MaxInt32", maxEdges))
}

// newRows allocates the upper rows of a graph on n vertices, with room for
// m edges: row x will be hi[start[x]:start[x+1]].
func newRows(n, m int) (start, hi []int32) {
	checkOrder(n)
	return make([]int32, n+1), make([]int32, 0, m)
}

// appendRow appends the upper neighbour v to the open row. It panics
// before the rows pass maxEdges edges, where the int32 row starts would
// wrap.
func appendRow(hi []int32, v int) []int32 {
	if len(hi) == maxEdges {
		tooManyEdges()
	}
	return append(hi, int32(v))
}

// fill blocks its scattered writes above blockedMinN vertices, in blocks
// whose adjacency averages at most blockEntries entries (~1 MB, which
// stays in L2). Blocking loses on small graphs and wins on large ones.
// Timed alone against the one-pass fill (medians of five alternating
// rounds, 2-vCPU Xeon with 2 MB of L2 per core), it ran 0.69x as fast on
// G(n, average degree 10) at n = 2^17 and 0.87x at 2^18, 1.23x at 2^19 and
// 1.24x at 10^6, and 0.56x on dense G(8192, 0.25).
const (
	blockedMinN  = 1 << 18
	blockEntries = 1 << 18
)

// fill builds the CSR graph on len(start)-1 vertices from its upper rows:
// row x is hi[start[x]:start[x+1]], the neighbours of x above x in
// strictly increasing order. Every graph except Relabel's is filled here.
// The caller keeps len(hi) within maxEdges.
//
// Every edge is placed twice: row x is copied behind x's lower neighbours,
// and x is written into the lower half of each of its upper neighbours, so
// the lower halves fill in increasing order. Those second writes land all
// over adj, and on a large graph each one misses the cache. Above
// blockedMinN vertices they are blocked: the vertices go in blocks of 2^k
// consecutive ids (see blockShift), and a write into a later block waits
// in that block's bucket until the fill reaches the block.
func fill(start, hi []int32) *Graph {
	n := len(start) - 1
	// One sequential pass counts the lower degrees into offsets[v+1].
	offsets := make([]int, n+1)
	for _, v := range hi {
		offsets[v+1]++
	}
	maxDeg := 0
	for x := 0; x < n; x++ {
		d := offsets[x+1] + int(start[x+1]-start[x])
		offsets[x+1] = offsets[x] + d
		maxDeg = max(maxDeg, d)
	}
	adj := make([]int32, offsets[n])

	shift := blockShift(n, len(hi))
	blocks := (n + 1<<shift - 1) >> shift
	// Bucket c holds the writes (x, v) into block c from rows x of earlier
	// blocks, in increasing x, in pend[base[c]:next[c]]. Block c's lower
	// degrees bound its bucket; block 0's is empty.
	base := make([]int, blocks+1)
	for c := 1; c < blocks; c++ {
		lo, end := c<<shift, min(n, (c+1)<<shift)
		base[c+1] = base[c] + offsets[end] - offsets[lo] - int(start[end]-start[lo])
	}
	pend := make([][2]int32, base[blocks])
	next := slices.Clone(base[:blocks])
	cur := make([]int32, min(n, 1<<shift)) // lower-half cursors of the block
	for c := 0; c < blocks; c++ {
		lo, end := c<<shift, min(n, (c+1)<<shift)
		for v := lo; v < end; v++ {
			cur[v-lo] = int32(offsets[v])
		}
		for _, e := range pend[base[c]:next[c]] {
			i := int(e[1]) - lo
			adj[cur[i]] = e[0]
			cur[i]++
		}
		for x := lo; x < end; x++ {
			row := hi[start[x]:start[x+1]]
			copy(adj[offsets[x+1]-len(row):offsets[x+1]], row)
			for _, v := range row {
				if int(v) < end {
					i := int(v) - lo
					adj[cur[i]] = int32(x)
					cur[i]++
				} else {
					b := v >> shift
					pend[next[b]] = [2]int32{int32(x), v}
					next[b]++
				}
			}
		}
	}
	return &Graph{offsets: offsets, adj: adj, maxDeg: maxDeg}
}

// blockShift returns log2 of fill's block size in vertices for n vertices
// and m edges: one block holding every vertex up to blockedMinN, and above
// it the largest power of two whose blocks average at most blockEntries
// adjacency entries.
func blockShift(n, m int) int {
	one := bits.Len(uint(n))
	if n <= blockedMinN || m == 0 {
		return one
	}
	return min(one, bits.Len(uint(blockEntries*n/(2*m)))-1)
}

// FromEdges builds a graph on n vertices from an explicit edge list.
func FromEdges(n int, edges [][2]int) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}
