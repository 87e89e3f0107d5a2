package mis

import (
	"ssmis/internal/engine"
	"ssmis/internal/engine/kernel"
	"ssmis/internal/graph"
	"ssmis/internal/xrand"
)

// Engine state values of the 2-state process.
const (
	twoWhite uint8 = 1
	twoBlack uint8 = 2
)

// twoStateProg is Definition 4 as a compiled lane program — the rule's one
// definition: a vertex is active (and privileged under a daemon) when black
// with a black neighbor or white with no black neighbor, and an active
// vertex resets to a random color. Codes {white, black}, activity
// ¬(black ⊕ hasBlackNbr), and the coin as the next state: the canonical
// shape the kernel's XOR-flip fast path recognizes. Compiled once; shared by
// every engine. RefTwoState (reference.go) is its literal transcription.
var twoStateProg = kernel.MustCompile(kernel.Spec{
	StateOf: [4]uint8{twoWhite, twoBlack, 0, 0},
	Active: kernel.TruthTable(func(code int, a, _ bool) bool {
		return (code&1 == 1) == a
	}),
	Touched: kernel.TruthTable(func(code int, a, _ bool) bool {
		return (code&1 == 1) == a
	}),
	CoinHi: [4]uint8{1, 1, 0, 0},
	CoinLo: [4]uint8{0, 0, 0, 0},
})

// TwoState is the paper's 2-state MIS process (Definition 4). Each vertex is
// black or white; in every round, each active vertex — black with a black
// neighbor, or white with no black neighbor — resets to a uniformly random
// color. The process has stabilized exactly when no vertex is active, at
// which point the black vertices form an MIS.
//
// The process is a thin wrapper over the shared frontier engine running
// twoStateProg: a round costs O(|active|/64 + Σ_{flipped u} deg(u)), and
// complete graphs take a fast path using the global black count.
type TwoState struct {
	core *engine.Core
	opts options
	// schedRng drives daemon selection (daemon.go), created on first use.
	schedRng *xrand.Rand
}

var _ Process = (*TwoState)(nil)

// NewTwoState creates a 2-state process on g. See Option for configuration;
// by default the initial states are uniformly random with master seed 1.
func NewTwoState(g *graph.Graph, opts ...Option) *TwoState {
	o := buildOptions(opts)
	master := xrand.New(o.seed)
	n := g.N()
	state := stateBuf(n, o.ctx)
	for u, b := range initialBlackMask(g, o, initStream(n, master)) {
		s := twoWhite
		if b {
			s = twoBlack
		}
		state[u] = s
	}
	return &TwoState{
		core: engine.New(g, twoStateProg, nil, state,
			splitVertexStreams(n, master, o.ctx), o.engine(true)),
		opts: o,
	}
}

// StabilizationTimes returns the per-vertex stabilization rounds recorded
// so far (-1 = not yet stable); nil unless WithLocalTimes was set.
func (p *TwoState) StabilizationTimes() []int {
	return stabilizationTimes(p.core, p.opts)
}

// Name implements Process.
func (p *TwoState) Name() string { return "2-state" }

// N implements Process.
func (p *TwoState) N() int { return p.core.Graph().N() }

// Round implements Process.
func (p *TwoState) Round() int { return p.core.Round() }

// States implements Process.
func (p *TwoState) States() int { return 2 }

// RandomBits implements Process.
func (p *TwoState) RandomBits() int64 { return p.core.Bits() }

// ActiveCount implements Process.
func (p *TwoState) ActiveCount() int { return p.core.ActiveCount() }

// Black implements Process.
func (p *TwoState) Black(u int) bool { return p.core.State(u) == twoBlack }

// Stabilized implements Process. For the 2-state process, "no active vertex"
// is equivalent to "every vertex covered by the stable core" (the black set
// is then an MIS).
func (p *TwoState) Stabilized() bool { return p.core.Stabilized() }

// Graph returns the underlying graph.
func (p *TwoState) Graph() *graph.Graph { return p.core.Graph() }

// Step implements Process: one synchronous round of Definition 4. A step on
// a quiescent process is a no-op (the round counter does not advance).
func (p *TwoState) Step() { p.core.Step() }

// Corrupt overwrites the color of vertex u mid-run (fault injection) and
// rebuilds the derived structures. The per-vertex random streams are not
// touched, so a corrupted run remains deterministic.
func (p *TwoState) Corrupt(u int, black bool) {
	s := twoWhite
	if black {
		s = twoBlack
	}
	p.core.States()[u] = s
	p.core.Rebuild()
}

// CorruptAll applies an arbitrary new color vector (fault injection).
func (p *TwoState) CorruptAll(black []bool) {
	state := p.core.States()
	if len(black) != len(state) {
		panic("mis: CorruptAll mask length mismatch")
	}
	for u, b := range black {
		s := twoWhite
		if b {
			s = twoBlack
		}
		state[u] = s
	}
	p.core.Rebuild()
}

// Rebind switches the process to a new graph on the same vertex set, keeping
// all vertex states — the topology-churn scenario: links changed, nodes kept
// their one bit of state, and self-stabilization must absorb the difference.
// It panics if the new graph has a different order.
func (p *TwoState) Rebind(g *graph.Graph) { p.core.Rebind(g) }

// BlackMask returns a copy of the current color vector.
func (p *TwoState) BlackMask() []bool {
	state := p.core.States()
	out := make([]bool, len(state))
	for u, s := range state {
		out[u] = s == twoBlack
	}
	return out
}

// StableBlackCount returns |I_t|: black vertices with no black neighbor.
func (p *TwoState) StableBlackCount() int { return p.core.StableCoreCount() }

// BlackCount returns |B_t|.
func (p *TwoState) BlackCount() int { return p.core.ClassACount() }

// stabilizationTimes converts the engine's first-cover stamps to the
// StabilizationTimes contract (nil unless WithLocalTimes was requested).
func stabilizationTimes(core *engine.Core, o options) []int {
	if !o.trackLocal {
		return nil
	}
	stamps := core.CoveredAt()
	out := make([]int, len(stamps))
	for u, r := range stamps {
		out[u] = int(r)
	}
	return out
}
