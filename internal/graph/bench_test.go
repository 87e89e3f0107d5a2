package graph

import (
	"testing"

	"ssmis/internal/xrand"
)

// The graph-construction rows of BENCH_graph.json. Each builds the same
// graph on every iteration and reports its edge count, so a record shows
// the work behind its ns/op and B/op:
//
//   - GnpAvgDegree1M is misbench's gnp1m-2state set-up, G(10^6, avg 10):
//     the row walk and the cache-blocked fill;
//   - BuildChungLuPermuted is the CSR step of edgelist-3state-trials: one
//     Build of a fresh builder holding the sorted edge list of
//     Chung-Lu(2^17) under a random permutation, as graphio's reader hands
//     it over, read off as rows and filled in one pass (a repeated Build of
//     one builder would time a different path at the parent commit, which
//     kept its sorted edges between Builds);
//   - RandomTree1M is Build on unsorted edges (each vertex added with its
//     parent), the counting-sort path;
//   - GnpDense8192 is E6's dense cell, G(8192, 0.25), on the enumerating
//     branch.
var benchGraph *Graph

func BenchmarkGnpAvgDegree1M(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchGraph = GnpAvgDegree(1_000_000, 10, xrand.New(1))
	}
	b.ReportMetric(float64(benchGraph.M()), "edges")
}

func BenchmarkBuildChungLuPermuted(b *testing.B) {
	const n = 1 << 17
	g := ChungLu(n, 2.5, 10, xrand.New(1))
	perm := make([]int32, n)
	for i, v := range xrand.New(2).Perm(n) {
		perm[i] = int32(v)
	}
	var edges [][2]int
	Relabel(g, perm).Edges(func(u, v int) { edges = append(edges, [2]int{u, v}) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bl := NewBuilder(n)
		for _, e := range edges {
			bl.AddEdge(e[0], e[1])
		}
		b.StartTimer()
		benchGraph = bl.Build()
	}
	b.ReportMetric(float64(benchGraph.M()), "edges")
}

func BenchmarkRandomTree1M(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchGraph = RandomTree(1<<20, xrand.New(1))
	}
	b.ReportMetric(float64(benchGraph.M()), "edges")
}

func BenchmarkGnpDense8192(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchGraph = Gnp(8192, 0.25, xrand.New(1))
	}
	b.ReportMetric(float64(benchGraph.M()), "edges")
}
