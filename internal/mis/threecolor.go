package mis

import (
	"fmt"

	"ssmis/internal/engine"
	"ssmis/internal/engine/kernel"
	"ssmis/internal/graph"
	"ssmis/internal/phaseclock"
	"ssmis/internal/xrand"
)

// Color is a vertex color of the 3-color MIS process.
type Color uint8

// The three colors of Definition 28. Gray vertices are treated as non-black
// by their neighbors; a gray vertex turns white only when its logarithmic
// switch reads "on", which throttles how often a vertex can re-enter the
// white→black competition — the mechanism that makes the dense G(n,p) regime
// tractable.
const (
	ColorWhite Color = iota + 1
	ColorBlack
	ColorGray
)

func (c Color) String() string {
	switch c {
	case ColorWhite:
		return "white"
	case ColorBlack:
		return "black"
	case ColorGray:
		return "gray"
	default:
		return fmt.Sprintf("Color(%d)", uint8(c))
	}
}

// threeColorRule is Definition 28 as an engine rule: the 2-state update rule
// with two changes — an active black vertex randomizes between black and
// gray (not white), and a gray vertex becomes white only when its
// (a, 3)-logarithmic switch (Definition 26, a = 512, ζ = 2^-7) is on. The
// switch runs as the rule's mid-round sub-process on the same per-vertex
// streams: a vertex draws its color coin first (if active) and its switch
// coin second (if at the top level), the order the goroutine runtime
// replays.
//
// Every gray vertex stays on the worklist — whether it drains is decided by
// the switch value at evaluation time, which changes round to round outside
// the engine's counter model.
type threeColorRule struct {
	clock *phaseclock.Clock
	rngs  []*xrand.Rand
}

func (*threeColorRule) NumStates() int { return 3 }

func (*threeColorRule) Class(s uint8) uint8 {
	if Color(s) == ColorBlack {
		return engine.ClassA
	}
	return 0
}

func (*threeColorRule) Black(s uint8) bool { return Color(s) == ColorBlack }

// Active mirrors the 2-state predicate: black with a black neighbor, or
// white with no black neighbor. Gray vertices are never active — their only
// transition is the switch-gated gray→white.
func (*threeColorRule) Active(_ int, s uint8, a, _ int32) bool {
	switch Color(s) {
	case ColorBlack:
		return a > 0
	case ColorWhite:
		return a == 0
	default:
		return false
	}
}

func (r *threeColorRule) Touched(u int, s uint8, a, b int32) bool {
	return Color(s) == ColorGray || r.Active(u, s, a, b)
}

func (r *threeColorRule) Evaluate(u int, s uint8, _, _ int32, d *engine.Draw) uint8 {
	switch Color(s) {
	case ColorBlack: // active: has a black neighbor
		if d.Coin(u) {
			return uint8(ColorBlack)
		}
		return uint8(ColorGray)
	case ColorWhite: // active: no black neighbor
		if d.Coin(u) {
			return uint8(ColorBlack)
		}
		return uint8(ColorWhite)
	default: // gray, gated by the switch value σ_{t-1}
		if r.clock.On(u) {
			return uint8(ColorWhite)
		}
		return uint8(ColorGray)
	}
}

// MidRound advances the switch one synchronous round on the shared
// per-vertex streams, after the color coins and before the commit.
func (r *threeColorRule) MidRound() {
	r.clock.Step(r.rngs)
}

// threeColorProg is Definition 28 as a compiled lane program: the 2-state
// tables plus a gray code (10) that is always touched, never active, and
// whose forced transition is gated — gray→white when the vertex's switch
// bit is on, gray→gray otherwise. The engine re-exports the gate lane after
// every MidRound (ExportGate below), so evaluation reads σ_{t-1} exactly as
// the scalar Evaluate does.
var threeColorProg = kernel.MustCompile(kernel.Spec{
	StateOf: [4]uint8{uint8(ColorWhite), uint8(ColorBlack), uint8(ColorGray), 0},
	UseGate: true,
	Active: kernel.TruthTable(func(code int, a, _ bool) bool {
		switch code {
		case 1: // black
			return a
		case 0: // white
			return !a
		default: // gray (code 3 unused)
			return false
		}
	}),
	Touched: kernel.TruthTable(func(code int, a, _ bool) bool {
		switch code {
		case 1:
			return a
		case 0:
			return !a
		case 2: // gray: whether it drains is the switch's call, not the counters'
			return true
		default:
			return false
		}
	}),
	CoinHi:    [4]uint8{1, 1, 0, 0}, // active white/black → black on coin 1
	CoinLo:    [4]uint8{0, 2, 0, 0}, // white stays white, black retreats to gray
	ForcedOn:  [4]uint8{0, 0, 0, 0}, // gray with switch on → white
	ForcedOff: [4]uint8{0, 0, 2, 0}, // gray with switch off stays gray
})

// LaneProgram marks the rule for the engine's bit-sliced kernel; the
// mid-round switch participates through ExportGate.
func (*threeColorRule) LaneProgram() *kernel.Program { return threeColorProg }

// ExportGate packs the per-vertex switch values into the kernel's gate lane
// (engine.KernelGate), called by the engine after every MidRound and at
// Rebuild.
func (r *threeColorRule) ExportGate(dst []uint64) { r.clock.ExportOn(dst) }

// ThreeColor is the paper's 3-color MIS process (Definition 28) with the
// randomized logarithmic switch sub-process; total state space is 3 × 6 = 18
// states per vertex. It is a thin rule over the shared frontier engine.
type ThreeColor struct {
	core *engine.Core
	rule *threeColorRule
	opts options
	// g is the caller's graph in original vertex ids; ord the locality
	// relabeling the engine and switch run under (nil = identity, order.go).
	g   *graph.Graph
	ord *graph.Ordering
}

var _ Process = (*ThreeColor)(nil)

// NewThreeColor creates a 3-color process on g. InitRandom draws colors
// uniformly from {white, black, gray} and switch levels uniformly from
// [0, 5]; mask-based initializers map black→black, white→white with uniform
// random switch levels (the switch state is part of the adversarial state).
func NewThreeColor(g *graph.Graph, opts ...Option) *ThreeColor {
	o := buildOptions(opts)
	master := xrand.New(o.seed)
	n := g.N()
	ord := orderingFor(g, o)
	eg := engineGraph(g, ord)
	state := stateBuf(n, o.ctx)
	irng := initStream(n, master)
	// Initialization coins (colors, then switch levels below) are drawn in
	// original vertex order; only the storage slot is relabeled.
	if o.initialBlack == nil && o.init == InitRandom {
		for u := 0; u < n; u++ {
			state[ord.NewID(u)] = uint8(1 + irng.Intn(3))
		}
	} else {
		for u, b := range initialBlackMask(g, o, irng) {
			s := uint8(ColorWhite)
			if b {
				s = uint8(ColorBlack)
			}
			state[ord.NewID(u)] = s
		}
	}
	// D=3, on iff level ≤ 2; ζ = 2^-switchZetaLog2 (paper: 2^-7). A run
	// context leases the clock's level, count and scratch arrays too, so a
	// context-backed 3-color run makes no per-run O(n) allocation at all.
	// The clock lives in the engine's (possibly relabeled) vertex space.
	var clock *phaseclock.Clock
	if o.ctx != nil {
		clock = phaseclock.New(eg, phaseclock.WithZetaLog2(o.switchZetaLog2),
			phaseclock.WithBuffers(o.ctx.ClockBufs(n)))
	} else {
		clock = phaseclock.New(eg, phaseclock.WithZetaLog2(o.switchZetaLog2))
	}
	rule := &threeColorRule{
		clock: clock,
		rngs:  splitVertexStreams(n, master, o.ctx, ord),
	}
	rule.clock.RandomizeLevelsPerm(irng, ordPerm(ord))
	return &ThreeColor{
		core: engine.New(eg, rule, state, rule.rngs, o.engine(false, ord)),
		rule: rule,
		opts: o,
		g:    g,
		ord:  ord,
	}
}

// StabilizationTimes returns the per-vertex stabilization rounds recorded
// so far (-1 = not yet stable); nil unless WithLocalTimes was set.
func (p *ThreeColor) StabilizationTimes() []int {
	return stabilizationTimes(p.core, p.opts)
}

// Name implements Process.
func (p *ThreeColor) Name() string { return "3-color" }

// N implements Process.
func (p *ThreeColor) N() int { return p.core.Graph().N() }

// Round implements Process.
func (p *ThreeColor) Round() int { return p.core.Round() }

// States implements Process: 3 colors × 6 switch levels.
func (p *ThreeColor) States() int { return 3 * p.rule.clock.States() }

// RandomBits implements Process; includes the switch's coins.
func (p *ThreeColor) RandomBits() int64 { return p.core.Bits() + p.rule.clock.RandomBits() }

// ActiveCount implements Process.
func (p *ThreeColor) ActiveCount() int { return p.core.ActiveCount() }

// Black implements Process.
func (p *ThreeColor) Black(u int) bool { return Color(p.core.State(p.ord.NewID(u))) == ColorBlack }

// ColorOf returns the current color of u.
func (p *ThreeColor) ColorOf(u int) Color { return Color(p.core.State(p.ord.NewID(u))) }

// SwitchLevel returns u's current switch level (0..5).
func (p *ThreeColor) SwitchLevel(u int) uint8 { return p.rule.clock.Level(p.ord.NewID(u)) }

// SwitchOn returns u's current switch value.
func (p *ThreeColor) SwitchOn(u int) bool { return p.rule.clock.On(p.ord.NewID(u)) }

// GrayCount returns |Γ_t|.
func (p *ThreeColor) GrayCount() int { return p.core.StateCount(uint8(ColorGray)) }

// Stabilized implements Process.
func (p *ThreeColor) Stabilized() bool { return p.core.Stabilized() }

// Graph returns the underlying graph (the caller's, in original vertex ids).
func (p *ThreeColor) Graph() *graph.Graph { return p.g }

// Step implements Process: one synchronous round of Definition 28. The color
// update reads the switch values σ_{t-1} from the end of the previous round;
// the switch then advances in parallel.
func (p *ThreeColor) Step() { p.core.Step() }

// Rebind switches the process (and its switch sub-process) to a new graph
// on the same vertex set, keeping all vertex states (topology churn); a
// held relabeling is carried over to the new graph. It panics on order
// mismatch.
func (p *ThreeColor) Rebind(g *graph.Graph) {
	p.g = g
	if p.ord != nil {
		p.ord = p.ord.Rebind(g)
		p.rule.clock.Rebind(p.ord.G)
		p.core.RebindOrdered(p.ord)
		return
	}
	p.rule.clock.Rebind(g)
	p.core.Rebind(g)
}

// Corrupt overwrites the color and switch level of u mid-run.
func (p *ThreeColor) Corrupt(u int, c Color, level uint8) {
	i := p.ord.NewID(u)
	p.core.States()[i] = uint8(c)
	p.rule.clock.SetLevel(i, level)
	p.core.Rebuild()
}
