package mis

import (
	"fmt"
	"testing"

	"ssmis/internal/engine"
	"ssmis/internal/graph"
	"ssmis/internal/sched"
	"ssmis/internal/verify"
	"ssmis/internal/xrand"
)

// lockstepProc is one rule under the lockstep matrices: its constructor, its
// full per-vertex state (beyond the Black projection), and its reference
// transcription (reference.go) seeded from a process's initial
// configuration, exposing the same full state.
type lockstepProc struct {
	name    string
	mk      func(g *graph.Graph, opts ...Option) Process
	stateOf func(p Process, u int) int
	ref     func(g *graph.Graph, seed uint64, p Process) refRun
}

// refRun is a reference oracle under lockstep: one verbatim round per Step,
// and the full state of vertex u in lockstepProc.stateOf's encoding.
type refRun struct {
	step  func()
	state func(u int) int
}

func lockstepProcs() []lockstepProc {
	return []lockstepProc{
		{
			"2-state",
			func(g *graph.Graph, opts ...Option) Process { return NewTwoState(g, opts...) },
			func(p Process, u int) int { return boolInt(p.Black(u)) },
			func(g *graph.Graph, seed uint64, p Process) refRun {
				ref := NewRefTwoState(g, seed, p.(*TwoState).BlackMask())
				return refRun{ref.Step, func(u int) int { return boolInt(ref.Black(u)) }}
			},
		},
		{
			"3-state",
			func(g *graph.Graph, opts ...Option) Process { return NewThreeState(g, opts...) },
			func(p Process, u int) int { return int(p.(*ThreeState).State(u)) },
			func(g *graph.Graph, seed uint64, p Process) refRun {
				initial := make([]TriState, g.N())
				for u := range initial {
					initial[u] = p.(*ThreeState).State(u)
				}
				ref := NewRefThreeState(g, seed, initial)
				return refRun{ref.Step, func(u int) int { return int(ref.State(u)) }}
			},
		},
		{
			"3-color",
			func(g *graph.Graph, opts ...Option) Process { return NewThreeColor(g, opts...) },
			func(p Process, u int) int {
				tc := p.(*ThreeColor)
				return int(tc.ColorOf(u))<<8 | int(tc.SwitchLevel(u))
			},
			func(g *graph.Graph, seed uint64, p Process) refRun {
				colors := make([]Color, g.N())
				levels := make([]uint8, g.N())
				for u := range colors {
					colors[u] = p.(*ThreeColor).ColorOf(u)
					levels[u] = p.(*ThreeColor).SwitchLevel(u)
				}
				ref := NewRefThreeColor(g, seed, colors, levels)
				return refRun{ref.Step, func(u int) int { return int(ref.ColorOf(u))<<8 | int(ref.Level(u)) }}
			},
		},
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// The lockstep matrix for all three rules on the bit-sliced engine. The
// default process (auto counter layout) must replay its reference
// transcription state for state, every round, until it stabilizes on a
// valid MIS; then every forced counter-plane geometry must replay the
// default run round by round: full states (black0 vs black1, switch
// levels), active counts, bit accounting, and the final coveredAt stamps.
func TestKernelLockstepMatrix(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp-sparse", graph.Gnp(400, 0.01, xrand.New(1))},
		{"gnp-dense", graph.Gnp(200, 0.2, xrand.New(2))},
		{"complete", graph.Complete(257)}, // odd order: partial tail word
		// Weight-sorted power-law ids: a populated hub prefix, so the
		// counter-layout axis below exercises the hub/tail split for real.
		{"powerlaw", graph.ChungLu(1500, 2.0, 8, xrand.New(6))},
	}
	layouts := []engine.CounterLayout{engine.LayoutFlat, engine.LayoutNarrow, engine.LayoutSplit}
	type timed interface{ StabilizationTimes() []int }
	for _, pr := range lockstepProcs() {
		for _, gc := range graphs {
			cap := 4 * DefaultRoundCap(gc.g.N())
			base := pr.mk(gc.g, WithSeed(99), WithLocalTimes())
			ref := pr.ref(gc.g, 99, base)
			for !base.Stabilized() && base.Round() < cap {
				base.Step()
				ref.step()
				for u := 0; u < gc.g.N(); u++ {
					if pr.stateOf(base, u) != ref.state(u) {
						t.Fatalf("%s/%s: state of %d diverged from the reference at round %d",
							pr.name, gc.name, u, base.Round())
					}
				}
			}
			baseRes := Result{base.Round(), base.Stabilized(), base.RandomBits()}
			if !baseRes.Stabilized {
				t.Fatalf("%s/%s: default run did not stabilize", pr.name, gc.name)
			}
			if err := verify.MIS(gc.g, base.Black); err != nil {
				t.Fatalf("%s/%s: %v", pr.name, gc.name, err)
			}
			for _, layout := range layouts {
				name := fmt.Sprintf("%s/%s/layout=%v", pr.name, gc.name, layout)
				p := pr.mk(gc.g, WithSeed(99), WithLocalTimes(), WithCounterLayout(layout))
				// Round-by-round, against a fresh default twin, so a
				// divergence is pinned to the exact round it appears.
				twin := pr.mk(gc.g, WithSeed(99), WithLocalTimes())
				for !p.Stabilized() && p.Round() < cap {
					p.Step()
					twin.Step()
					if p.ActiveCount() != twin.ActiveCount() || p.RandomBits() != twin.RandomBits() {
						t.Fatalf("%s: round %d active/bits diverged (%d,%d) vs (%d,%d)",
							name, p.Round(), p.ActiveCount(), p.RandomBits(),
							twin.ActiveCount(), twin.RandomBits())
					}
					for u := 0; u < gc.g.N(); u++ {
						if pr.stateOf(p, u) != pr.stateOf(twin, u) {
							t.Fatalf("%s: state of %d diverged at round %d", name, u, p.Round())
						}
					}
				}
				if res := (Result{p.Round(), p.Stabilized(), p.RandomBits()}); res != baseRes {
					t.Fatalf("%s: summary %+v, default %+v", name, res, baseRes)
				}
				pt := p.(timed).StabilizationTimes()
				for u, st := range base.(timed).StabilizationTimes() {
					if pt[u] != st {
						t.Fatalf("%s: coveredAt stamp of %d is %d, default %d", name, u, pt[u], st)
					}
				}
			}
		}
	}
}

// Daemon steps move vertices through the program's per-vertex transition
// and share Step's commit and refresh. Under each fair daemon a 3-state
// process with each forced counter-plane geometry must replay the default
// execution move for move, with intact incremental structures, and end on
// a valid MIS.
func TestKernelDaemonLockstep(t *testing.T) {
	g := graph.Gnp(150, 0.05, xrand.New(3))
	daemons := []sched.Daemon{sched.Synchronous{}, sched.CentralRandom{}, sched.DistributedRandom{}}
	for _, d := range daemons {
		base := NewThreeState(g, WithSeed(5))
		var variants []*ThreeState
		for _, l := range []engine.CounterLayout{engine.LayoutFlat, engine.LayoutNarrow, engine.LayoutSplit} {
			variants = append(variants, NewThreeState(g, WithSeed(5), WithCounterLayout(l)))
		}
		cap := DefaultDaemonStepCap(g.N())
		for i := 0; i < cap && !base.Stabilized(); i++ {
			base.DaemonStep(d)
			for _, v := range variants {
				v.DaemonStep(d)
				if v.Moves() != base.Moves() || v.RandomBits() != base.RandomBits() {
					t.Fatalf("%s: step %d moves/bits diverged", d.Name(), i)
				}
			}
			if err := base.core.CheckIntegrity(); err != nil {
				t.Fatalf("%s: step %d: %v", d.Name(), i, err)
			}
		}
		if !base.Stabilized() {
			t.Fatalf("%s: did not stabilize", d.Name())
		}
		for _, v := range variants {
			if !v.Stabilized() {
				t.Fatalf("%s: variant did not stabilize", d.Name())
			}
			for u := 0; u < g.N(); u++ {
				if v.State(u) != base.State(u) {
					t.Fatalf("%s: state of %d diverged", d.Name(), u)
				}
			}
		}
		if err := verify.MIS(g, base.Black); err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
	}
}

// Mid-run corruption followed by Rebuild must re-derive the lanes (states,
// both neighbor counters, and the 3-color gate): after identical corruption
// of the process and of its reference transcription — mid-run, so the
// per-vertex streams are already advanced — the two must keep agreeing
// state for state every round until the process stabilizes.
func TestKernelRebuildLockstep(t *testing.T) {
	g := graph.Gnp(180, 0.06, xrand.New(4))
	mut := xrand.New(7)
	cap := 4 * DefaultRoundCap(g.N())

	p3s := NewThreeState(g, WithSeed(11))
	ref3s := NewRefThreeState(g, 11, triStates(p3s))
	p3c := NewThreeColor(g, WithSeed(11))
	colors, levels := colorStates(p3c)
	ref3c := NewRefThreeColor(g, 11, colors, levels)
	check := func(when string) {
		t.Helper()
		for u := 0; u < g.N(); u++ {
			if p3s.State(u) != ref3s.State(u) {
				t.Fatalf("3-state: state of %d diverged %s (round %d)", u, when, p3s.Round())
			}
			if p3c.ColorOf(u) != ref3c.ColorOf(u) || p3c.SwitchLevel(u) != ref3c.Level(u) {
				t.Fatalf("3-color: state of %d diverged %s (round %d)", u, when, p3c.Round())
			}
		}
	}
	for i := 0; i < 6; i++ {
		p3s.Step()
		ref3s.Step()
		p3c.Step()
		ref3c.Step()
		check("before corruption")
	}
	for i := 0; i < 12; i++ {
		u := mut.Intn(g.N())
		ts := TriState(1 + mut.Intn(3))
		p3s.Corrupt(u, ts)
		ref3s.state[u] = ts
		c := Color(1 + mut.Intn(3))
		lvl := uint8(mut.Intn(6))
		p3c.Corrupt(u, c, lvl)
		ref3c.color[u], ref3c.level[u] = c, lvl
	}
	for !(p3s.Stabilized() && p3c.Stabilized()) && p3c.Round() < cap {
		p3s.Step()
		ref3s.Step()
		p3c.Step()
		ref3c.Step()
		check("after corruption")
	}
	if !p3s.Stabilized() || !p3c.Stabilized() {
		t.Fatal("post-corruption runs did not stabilize")
	}
}

// triStates and colorStates snapshot a process's initial configuration for
// its reference transcription.
func triStates(p *ThreeState) []TriState {
	out := make([]TriState, p.N())
	for u := range out {
		out[u] = p.State(u)
	}
	return out
}

func colorStates(p *ThreeColor) ([]Color, []uint8) {
	colors := make([]Color, p.N())
	levels := make([]uint8, p.N())
	for u := range colors {
		colors[u], levels[u] = p.ColorOf(u), p.SwitchLevel(u)
	}
	return colors, levels
}

// A run context leased across rule switches (2-state → 3-state → 3-color →
// back) must reconfigure the lanes without leaking bits between rules: each
// context-backed run must equal its context-free execution exactly. The sizes shrink and grow so stale words beyond the
// new tail would be caught.
func TestKernelRunContextRuleSwitch(t *testing.T) {
	ctx := engine.NewRunContext()
	sizes := []int{300, 100, 257, 64, 130}
	mks := []func(g *graph.Graph, opts ...Option) Process{
		func(g *graph.Graph, opts ...Option) Process { return NewTwoState(g, opts...) },
		func(g *graph.Graph, opts ...Option) Process { return NewThreeState(g, opts...) },
		func(g *graph.Graph, opts ...Option) Process { return NewThreeColor(g, opts...) },
	}
	for i, n := range sizes {
		for j, mk := range mks {
			g := graph.Gnp(n, 0.05, xrand.New(uint64(10+i)))
			seed := uint64(3*i + j)
			cap := 4 * DefaultRoundCap(n)
			ref := Run(mk(g, WithSeed(seed)), cap)
			got := Run(mk(g, WithSeed(seed), WithRunContext(ctx)), cap)
			if got != ref {
				t.Fatalf("size %d proc %d: context-backed %+v vs fresh %+v", n, j, got, ref)
			}
		}
	}
}
