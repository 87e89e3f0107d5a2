package mis

import (
	"ssmis/internal/graph"
)

// RoundMetrics is a per-round snapshot of the aggregate quantities the
// paper's analysis tracks: |B_t| (black), |A_t| (active), |I_t| (stable
// black), |V_t| (unstable = V \ N+(I_t)), and |Γ_t| (gray; zero except for
// the 3-color process).
type RoundMetrics struct {
	Round       int
	Black       int
	Active      int
	StableBlack int
	Unstable    int
	Gray        int
}

// grayCounter is implemented by processes with a gray color.
type grayCounter interface {
	GrayCount() int
}

// graphHolder is implemented by all simulator processes.
type graphHolder interface {
	Graph() *graph.Graph
}

// Snapshot computes the round metrics of a process. It costs O(n + m) and is
// intended for progress reports (misrun -progress), not hot loops.
func Snapshot(p Process) RoundMetrics {
	m := RoundMetrics{Round: p.Round(), Active: p.ActiveCount()}
	g := p.(graphHolder).Graph()
	n := g.N()
	black := make([]bool, n)
	for u := 0; u < n; u++ {
		if p.Black(u) {
			black[u] = true
			m.Black++
		}
	}
	if gc, ok := p.(grayCounter); ok {
		m.Gray = gc.GrayCount()
	}
	// Stable black and N+(I) coverage.
	covered := make([]bool, n)
	for u := 0; u < n; u++ {
		if !black[u] {
			continue
		}
		stable := true
		for _, v := range g.Neighbors(u) {
			if black[v] {
				stable = false
				break
			}
		}
		if stable {
			m.StableBlack++
			covered[u] = true
			for _, v := range g.Neighbors(u) {
				covered[v] = true
			}
		}
	}
	for u := 0; u < n; u++ {
		if !covered[u] {
			m.Unstable++
		}
	}
	return m
}
