package mis

import (
	"fmt"
	"testing"

	"ssmis/internal/engine"
	"ssmis/internal/graph"
	"ssmis/internal/verify"
	"ssmis/internal/xrand"
)

// Determinism matrix for the engine's membership refresh: every process ×
// forced uneven frontiers (star: one hub word saturates, leaf words go
// quiet; caterpillar: churn concentrates on the spine; complete: dirtyAll
// forces the full O(n/64) refresh every changing round; power-law: the
// hubs' lane words saturate while the tail goes quiet), each run twice:
// fresh, and on one run context that the whole matrix leases in turn, so
// its counter plane and membership sets are reshaped between 16-bit, byte
// and no lanes before every run. Summaries, per-vertex colors, and the
// coveredAt stamps behind the local-times instrument must be byte-identical
// to the fresh run, whose rule TestKernelLockstepMatrix pins to the
// reference transcriptions.
func TestRefreshDeterminismMatrix(t *testing.T) {
	type proc struct {
		name string
		mk   func(g *graph.Graph, opts ...Option) Process
	}
	procs := []proc{
		{"2-state", func(g *graph.Graph, opts ...Option) Process { return NewTwoState(g, opts...) }},
		{"3-state", func(g *graph.Graph, opts ...Option) Process { return NewThreeState(g, opts...) }},
		{"3-color", func(g *graph.Graph, opts ...Option) Process { return NewThreeColor(g, opts...) }},
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"star", graph.Star(700)},
		{"caterpillar", graph.Caterpillar(120, 5)},
		{"complete", graph.Complete(256)},
		{"powerlaw", graph.ChungLu(8000, 2.0, 10, xrand.New(42))},
	}
	type timed interface{ StabilizationTimes() []int }
	ctx := engine.NewRunContext()
	for _, pr := range procs {
		for _, gc := range graphs {
			cap := 4 * DefaultRoundCap(gc.g.N())
			base := pr.mk(gc.g, WithSeed(77), WithLocalTimes())
			baseRes := Run(base, cap)
			if !baseRes.Stabilized {
				t.Fatalf("%s/%s: default run did not stabilize", pr.name, gc.name)
			}
			if err := verify.MIS(gc.g, base.Black); err != nil {
				t.Fatalf("%s/%s: %v", pr.name, gc.name, err)
			}
			baseTimes := base.(timed).StabilizationTimes()
			name := fmt.Sprintf("%s/%s/leased", pr.name, gc.name)
			p := pr.mk(gc.g, WithSeed(77), WithLocalTimes(), WithRunContext(ctx))
			if res := Run(p, cap); res != baseRes {
				t.Fatalf("%s: summary %+v, fresh %+v", name, res, baseRes)
			}
			for u := 0; u < gc.g.N(); u++ {
				if p.Black(u) != base.Black(u) {
					t.Fatalf("%s: color of %d diverged", name, u)
				}
			}
			pts := p.(timed).StabilizationTimes()
			for u, bt := range baseTimes {
				if pts[u] != bt {
					t.Fatalf("%s: coveredAt stamp of %d is %d, fresh %d", name, u, pts[u], bt)
				}
			}
		}
	}
}
