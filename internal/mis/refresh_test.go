package mis

import (
	"fmt"
	"testing"

	"ssmis/internal/engine"
	"ssmis/internal/graph"
	"ssmis/internal/verify"
	"ssmis/internal/xrand"
)

// Determinism matrix for the engine's partitioned two-phase refresh: every
// process × forced uneven frontiers (star: one hub word saturates, leaf
// words go quiet; caterpillar: churn concentrates on the spine; complete:
// dirtyAll forces the full O(n/64) refresh every changing round; power-law:
// a hub prefix with a whole pure-hub lane word) × variants — workers {2, 8},
// the degree-bucketed relabeling at workers {1, 2, 8}, and every forced
// counter-plane geometry at workers {1, 2, 8}. Summaries, per-vertex
// colors, and the coveredAt stamps behind the local-times instrument must
// be byte-identical to the default workers=1 run, which TestKernelLockstep
// Matrix pins to the reference transcriptions.
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
		// word — the geometry the parallel refresh skips after a delta merge.
		{"powerlaw", graph.ChungLu(8000, 2.0, 10, xrand.New(42))},
	}
	type variant struct {
		name   string
		opts   []Option
		layout engine.CounterLayout // forced plane geometry, or auto
	}
	var variants []variant
	for _, workers := range []int{2, 8} {
		variants = append(variants, variant{fmt.Sprintf("workers=%d", workers), []Option{WithWorkers(workers)}, engine.LayoutAuto})
	}
	for _, workers := range []int{1, 2, 8} {
		variants = append(variants, variant{fmt.Sprintf("relabel workers=%d", workers),
			[]Option{WithWorkers(workers), WithDegreeOrder()}, engine.LayoutAuto})
		for _, layout := range []engine.CounterLayout{engine.LayoutFlat, engine.LayoutNarrow, engine.LayoutSplit} {
			variants = append(variants, variant{fmt.Sprintf("layout=%v workers=%d", layout, workers),
				[]Option{WithWorkers(workers), WithCounterLayout(layout)}, layout})
		}
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
			for _, v := range variants {
				name := fmt.Sprintf("%s/%s/%s", pr.name, gc.name, v.name)
				p := pr.mk(gc.g, append([]Option{WithSeed(77), WithLocalTimes()}, v.opts...)...)
				if info := counterPlaneOf(p); v.layout != engine.LayoutAuto && info.Active && info.Layout != v.layout {
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

// The refresh-heavy worst case: on a complete graph every changing round
// sets dirtyAll and the refresh re-derives every lane word — exactly the
// full phase the partitioned refresh parallelizes. workers=8 must reproduce the
// sequential execution on all three processes; CI runs this test under
// -race by name.
func TestParallelRefreshCompleteGraphWorkers8(t *testing.T) {
	g := graph.Complete(400)
	mks := []func(g *graph.Graph, opts ...Option) Process{
		func(g *graph.Graph, opts ...Option) Process { return NewTwoState(g, opts...) },
		func(g *graph.Graph, opts ...Option) Process { return NewThreeState(g, opts...) },
		func(g *graph.Graph, opts ...Option) Process { return NewThreeColor(g, opts...) },
	}
	for i, mk := range mks {
		for seed := uint64(0); seed < 3; seed++ {
			cap := 4 * DefaultRoundCap(g.N())
			seq := Run(mk(g, WithSeed(seed)), cap)
			par := Run(mk(g, WithSeed(seed), WithWorkers(8)), cap)
			if seq != par {
				t.Fatalf("proc %d seed %d: parallel %+v vs sequential %+v", i, seed, par, seq)
			}
			if !seq.Stabilized {
				t.Fatalf("proc %d seed %d: did not stabilize", i, seed)
			}
		}
	}
}
