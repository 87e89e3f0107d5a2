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

// threeColorProg is Definition 28 as a compiled lane program — the rule's
// one definition: the 2-state update rule with two changes — an active black
// vertex randomizes between black and gray (not white), and a gray vertex
// becomes white only when its (a, 3)-logarithmic switch (Definition 26,
// a = 512, ζ = 2^-7) is on. The 2-state tables plus a gray code (10) that is
// always touched, never active, and whose forced transition is gated —
// gray→white when the vertex's switch bit is on, gray→gray otherwise. Every
// gray vertex stays on the worklist: whether it drains is decided by the
// switch value at evaluation time, which changes round to round outside the
// engine's counter model. RefThreeColor (reference.go) is its literal
// transcription.
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

// logSwitch is the 3-color process's switch as the engine's sub-process:
// the phase clock runs on the same per-vertex streams as the color coins, a
// vertex drawing its color coin first (if active) and its switch coin
// second (if at the top level) — the order the stone-age runtime replays.
type logSwitch struct {
	clock *phaseclock.Clock
	rngs  []*xrand.Rand
}

// MidRound advances the switch one synchronous round, after the color coins
// and before the commit (engine.SubProcess).
func (s *logSwitch) MidRound() { s.clock.Step(s.rngs) }

// ExportGate packs the per-vertex switch values into the program's gate
// lane (engine.SubProcess), so evaluation reads σ_{t-1}.
func (s *logSwitch) ExportGate(dst []uint64) { s.clock.ExportOn(dst) }

// ThreeColor is the paper's 3-color MIS process (Definition 28) with the
// randomized logarithmic switch sub-process; total state space is 3 × 6 = 18
// states per vertex. It is a thin wrapper over the shared frontier engine
// running threeColorProg with the switch as its sub-process.
type ThreeColor struct {
	core *engine.Core
	sw   *logSwitch
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
	sw := &logSwitch{
		clock: clock,
		rngs:  splitVertexStreams(n, master, o.ctx, ord),
	}
	sw.clock.RandomizeLevelsPerm(irng, ordPerm(ord))
	return &ThreeColor{
		core: engine.New(eg, threeColorProg, sw, state, sw.rngs, o.engine(false, ord)),
		sw:   sw,
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
func (p *ThreeColor) States() int { return 3 * p.sw.clock.States() }

// RandomBits implements Process; includes the switch's coins.
func (p *ThreeColor) RandomBits() int64 { return p.core.Bits() + p.sw.clock.RandomBits() }

// ActiveCount implements Process.
func (p *ThreeColor) ActiveCount() int { return p.core.ActiveCount() }

// Black implements Process.
func (p *ThreeColor) Black(u int) bool { return Color(p.core.State(p.ord.NewID(u))) == ColorBlack }

// ColorOf returns the current color of u.
func (p *ThreeColor) ColorOf(u int) Color { return Color(p.core.State(p.ord.NewID(u))) }

// SwitchLevel returns u's current switch level (0..5).
func (p *ThreeColor) SwitchLevel(u int) uint8 { return p.sw.clock.Level(p.ord.NewID(u)) }

// SwitchOn returns u's current switch value.
func (p *ThreeColor) SwitchOn(u int) bool { return p.sw.clock.On(p.ord.NewID(u)) }

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
		p.sw.clock.Rebind(p.ord.G)
		p.core.RebindOrdered(p.ord)
		return
	}
	p.sw.clock.Rebind(g)
	p.core.Rebind(g)
}

// Corrupt overwrites the color and switch level of u mid-run.
func (p *ThreeColor) Corrupt(u int, c Color, level uint8) {
	i := p.ord.NewID(u)
	p.core.States()[i] = uint8(c)
	p.sw.clock.SetLevel(i, level)
	p.core.Rebuild()
}
