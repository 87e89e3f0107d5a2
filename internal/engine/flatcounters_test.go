package engine_test

import (
	"fmt"
	"testing"

	"ssmis/internal/engine"
	"ssmis/internal/graph"
	"ssmis/internal/mis"
	"ssmis/internal/xrand"
)

// The flat-counter lockstep for all three rules on real processes: a run on
// a context with int32 counters forced (ForceFlatCounters) must replay the
// run on the default lanes round by round — full states (black0 vs black1,
// switch levels), active counts, bit accounting, and the final coveredAt
// stamps. The graphs resolve to byte lanes (the G(n,p) graphs and the
// caterpillar) and 16-bit lanes (the star and the power-law graphs, whose
// hubs' lane words saturate while the tail goes quiet).
func TestFlatCountersLockstep(t *testing.T) {
	type planer interface {
		mis.Process
		CounterPlane() engine.CounterPlaneInfo
		StabilizationTimes() []int
	}
	rules := []struct {
		name  string
		mk    func(g *graph.Graph, opts ...mis.Option) planer
		state func(p planer, u int) int
	}{
		{"2-state",
			func(g *graph.Graph, opts ...mis.Option) planer { return mis.NewTwoState(g, opts...) },
			func(p planer, u int) int {
				if p.Black(u) {
					return 1
				}
				return 0
			}},
		{"3-state",
			func(g *graph.Graph, opts ...mis.Option) planer { return mis.NewThreeState(g, opts...) },
			func(p planer, u int) int { return int(p.(*mis.ThreeState).State(u)) }},
		{"3-color",
			func(g *graph.Graph, opts ...mis.Option) planer { return mis.NewThreeColor(g, opts...) },
			func(p planer, u int) int {
				tc := p.(*mis.ThreeColor)
				return int(tc.ColorOf(u))<<8 | int(tc.SwitchLevel(u))
			}},
	}
	graphs := []struct {
		name      string
		g         *graph.Graph
		widthBits int
	}{
		{"gnp-sparse", graph.Gnp(400, 0.01, xrand.New(1)), 8},
		{"gnp-dense", graph.Gnp(200, 0.2, xrand.New(2)), 8},
		{"caterpillar", graph.Caterpillar(120, 5), 8},
		{"star", graph.Star(700), 16},
		{"powerlaw", graph.ChungLu(1500, 2.0, 8, xrand.New(6)), 16},
		{"powerlaw-8000", graph.ChungLu(8000, 2.0, 10, xrand.New(42)), 16},
	}
	ctx := engine.NewRunContext()
	engine.ForceFlatCounters(ctx)
	for _, r := range rules {
		for _, gc := range graphs {
			name := fmt.Sprintf("%s/%s", r.name, gc.name)
			cap := 4 * mis.DefaultRoundCap(gc.g.N())
			base := r.mk(gc.g, mis.WithSeed(99), mis.WithLocalTimes())
			flat := r.mk(gc.g, mis.WithSeed(99), mis.WithLocalTimes(), mis.WithRunContext(ctx))
			if b, f := base.CounterPlane(), flat.CounterPlane(); b.WidthBits != gc.widthBits || f.WidthBits != 32 {
				t.Fatalf("%s: planes %+v and %+v, want %d and 32 bits", name, b, f, gc.widthBits)
			}
			for !base.Stabilized() && base.Round() < cap {
				base.Step()
				flat.Step()
				if flat.ActiveCount() != base.ActiveCount() || flat.RandomBits() != base.RandomBits() {
					t.Fatalf("%s: round %d active/bits diverged (%d,%d) vs (%d,%d)", name, base.Round(),
						flat.ActiveCount(), flat.RandomBits(), base.ActiveCount(), base.RandomBits())
				}
				for u := 0; u < gc.g.N(); u++ {
					if r.state(flat, u) != r.state(base, u) {
						t.Fatalf("%s: state of %d diverged at round %d", name, u, base.Round())
					}
				}
			}
			if !base.Stabilized() || !flat.Stabilized() {
				t.Fatalf("%s: stabilized %v (default) and %v (flat)", name, base.Stabilized(), flat.Stabilized())
			}
			ft := flat.StabilizationTimes()
			for u, bt := range base.StabilizationTimes() {
				if ft[u] != bt {
					t.Fatalf("%s: coveredAt stamp of %d is %d, default %d", name, u, ft[u], bt)
				}
			}
		}
	}
}
