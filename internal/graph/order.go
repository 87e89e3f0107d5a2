package graph

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// Ordering is a relabeling of a graph: a permutation of the vertex set
// together with the CSR graph rebuilt under it. Perm maps original ids to
// relabeled ids (Perm[old] = new); Inv is its inverse (Inv[new] = old); G
// is the relabeled graph: vertex Perm[u] of G has exactly the neighbors
// {Perm[v] : v ~ u}. The processes run in the caller's ids, so nothing in
// the engine uses an Ordering; the benchmark (misbench) times
// DegreeBucketOrder as a graph-layer metric.
type Ordering struct {
	Perm []int32 // Perm[old] = new
	Inv  []int32 // Inv[new] = old
	G    *Graph  // CSR rebuilt under Perm
}

// HubDegreeMin is the degree at which a vertex counts as a hub, for
// DegreeBucketOrder's buckets and for the engine's hub/tail counter split.
// Below it the bucket structure would only scatter the BFS locality of the
// long tail; hubs are the vertices whose neighbor-counter words absorb a
// super-constant share of the commit phase's writes.
const HubDegreeMin = 64

// degreeBucket maps a degree to its locality bucket: geometric (bit-length)
// buckets for hubs, one shared tail bucket (0) for everything below
// HubDegreeMin.
func degreeBucket(deg int) int {
	if deg < HubDegreeMin {
		return 0
	}
	return bits.Len(uint(deg))
}

// DegreeBucketOrder computes a degree-bucketed locality ordering: hubs
// (degree >= HubDegreeMin) are grouped into geometric degree buckets (bit
// length of deg(u)), buckets laid out from highest to lowest so the
// high-degree hubs land packed into the lowest ids; the entire low-degree
// tail shares one bucket behind them. On sparse families (m <= 32n) the order within each bucket
// follows a deterministic global BFS (restarted from the highest-degree
// unvisited vertex), which keeps topologically close vertices at nearby
// ids; on dense families the within-bucket order keeps original ids,
// where the CSR is already local.
//
// The result is a pure function of the graph. DegreeBucketOrder returns nil
// when the computed order is the identity permutation (nothing to relabel).
func DegreeBucketOrder(g *Graph) *Ordering {
	n := g.N()
	if n == 0 {
		return nil
	}
	rank := make([]int32, n) // within-bucket key
	if g.M() <= 32*n {
		bfsRanks(g, rank)
	} else {
		for u := range rank {
			rank[u] = int32(u)
		}
	}
	inv := make([]int32, n)
	for i := range inv {
		inv[i] = int32(i)
	}
	sort.Slice(inv, func(i, j int) bool {
		a, b := inv[i], inv[j]
		ba := degreeBucket(g.Degree(int(a)))
		bb := degreeBucket(g.Degree(int(b)))
		if ba != bb {
			return ba > bb // hubs first
		}
		if rank[a] != rank[b] {
			return rank[a] < rank[b]
		}
		return a < b
	})
	identity := true
	for i, u := range inv {
		if int32(i) != u {
			identity = false
			break
		}
	}
	if identity {
		return nil
	}
	perm := make([]int32, n)
	for i, u := range inv {
		perm[u] = int32(i)
	}
	return &Ordering{Perm: perm, Inv: inv, G: Relabel(g, perm)}
}

// bfsRanks fills rank[u] with u's discovery index in a deterministic
// breadth-first sweep: sources are taken in decreasing degree (ties by
// ascending id), neighbors expand in ascending id, and every component is
// covered by restarting at the next unvisited source.
func bfsRanks(g *Graph, rank []int32) {
	n := g.N()
	seeds := make([]int32, n)
	for i := range seeds {
		seeds[i] = int32(i)
	}
	sort.Slice(seeds, func(i, j int) bool {
		di, dj := g.Degree(int(seeds[i])), g.Degree(int(seeds[j]))
		if di != dj {
			return di > dj
		}
		return seeds[i] < seeds[j]
	})
	visited := make([]bool, n)
	queue := make([]int32, 0, n)
	next := int32(0)
	for _, s := range seeds {
		if visited[s] {
			continue
		}
		visited[s] = true
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			rank[u] = next
			next++
			for _, v := range g.Neighbors(int(u)) {
				if !visited[v] {
					visited[v] = true
					queue = append(queue, v)
				}
			}
		}
	}
}

// Relabel rebuilds g's CSR under the permutation perm (perm[old] = new):
// vertex perm[u] of the result has neighbor set {perm[v] : v ~ u}, sorted.
// The construction is direct — degrees permuted, prefix sums, lists filled
// and re-sorted — in O(n + m log maxdeg). It panics unless perm is a
// permutation of [0, n).
func Relabel(g *Graph, perm []int32) *Graph {
	n := g.N()
	if len(perm) != n {
		panic(fmt.Sprintf("graph: Relabel permutation of length %d for graph of order %d",
			len(perm), n))
	}
	offsets := make([]int, n+1)
	seen := make([]bool, n)
	for u := 0; u < n; u++ {
		p := perm[u]
		if p < 0 || int(p) >= n || seen[p] {
			panic(fmt.Sprintf("graph: Relabel perm is not a permutation (perm[%d] = %d)", u, p))
		}
		seen[p] = true
		offsets[int(p)+1] = g.Degree(u)
	}
	for i := 0; i < n; i++ {
		offsets[i+1] += offsets[i]
	}
	adj := make([]int32, len(g.adj))
	for u := 0; u < n; u++ {
		nu := int(perm[u])
		out := adj[offsets[nu]:offsets[nu+1]]
		for i, v := range g.Neighbors(u) {
			out[i] = perm[v]
		}
		if !slices.IsSorted(out) {
			slices.Sort(out)
		}
	}
	// A relabeling permutes degrees, so the memo carries over unchanged.
	return &Graph{offsets: offsets, adj: adj, maxDeg: g.maxDeg}
}
