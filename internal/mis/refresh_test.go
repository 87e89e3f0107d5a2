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
// forces the full O(n/64) refresh every changing round; power-law: a hub
// prefix with a whole pure-hub lane word) × every forced counter-plane
// geometry. Summaries, per-vertex colors, and the coveredAt stamps behind
// the local-times instrument must be byte-identical to the default run,
// which TestKernelLockstepMatrix pins to the reference transcriptions.
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
		// Weight-sorted power-law ids pack >= 64 hubs first, so the counter
		// plane resolves to the hub/tail split with a whole pure-hub lane
		// word.
		{"powerlaw", graph.ChungLu(8000, 2.0, 10, xrand.New(42))},
	}
	type timed interface{ StabilizationTimes() []int }
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
			for _, layout := range []engine.CounterLayout{engine.LayoutFlat, engine.LayoutNarrow, engine.LayoutSplit} {
				name := fmt.Sprintf("%s/%s/layout=%v", pr.name, gc.name, layout)
				p := pr.mk(gc.g, WithSeed(77), WithLocalTimes(), WithCounterLayout(layout))
				if info := counterPlaneOf(p); info.Active && info.Layout != layout {
					t.Fatalf("%s: plane resolved to %v", name, info.Layout)
				}
				if res := Run(p, cap); res != baseRes {
					t.Fatalf("%s: summary %+v, default %+v", name, res, baseRes)
				}
				for u := 0; u < gc.g.N(); u++ {
					if p.Black(u) != base.Black(u) {
						t.Fatalf("%s: color of %d diverged", name, u)
					}
				}
				pts := p.(timed).StabilizationTimes()
				for u, bt := range baseTimes {
					if pts[u] != bt {
						t.Fatalf("%s: coveredAt stamp of %d is %d, default %d", name, u, pts[u], bt)
					}
				}
			}
		}
	}
}
