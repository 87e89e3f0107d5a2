package phaseclock

import (
	"testing"

	"ssmis/internal/graph"
	"ssmis/internal/xrand"
)

// The clock's two regimes, one op = a standalone D=3 clock (ζ = 2^-7)
// built from random levels and stepped 1,000 rounds; the graph is built
// once, outside the timer. On the sparse graph few levels move per round,
// so the frontier stays small; the dense graph has diameter 2, its clocks
// synchronize, and every descent moves every vertex at once, which is
// where fullPassSpread decides between marking and a full pass.

func benchStandalone(b *testing.B, g *graph.Graph) {
	const rounds = 1000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewStandalone(g, uint64(i))
		for r := 0; r < rounds; r++ {
			s.Step()
		}
	}
}

func BenchmarkClockSparse(b *testing.B) {
	benchStandalone(b, graph.GnpAvgDegree(100_000, 10, xrand.New(1)))
}

func BenchmarkClockDense(b *testing.B) {
	g := graph.Gnp(512, 0.5, xrand.New(2))
	if !g.DiameterAtMostTwo() {
		b.Fatal("G(512, 0.5) sample is not of diameter 2")
	}
	benchStandalone(b, g)
}
