package mis

import (
	"fmt"

	"ssmis/internal/engine"
	"ssmis/internal/engine/kernel"
	"ssmis/internal/graph"
	"ssmis/internal/xrand"
)

// TriState is a vertex state of the 3-state MIS process.
type TriState uint8

// The three states of Definition 5. Black1 and Black0 both present as
// "black" to neighbors; the extra bit removes the need for collision
// detection: a black0 vertex that hears a black1 neighbor knows it lost the
// symmetry-breaking round and becomes white.
const (
	TriWhite TriState = iota + 1
	TriBlack0
	TriBlack1
)

func (s TriState) String() string {
	switch s {
	case TriWhite:
		return "white"
	case TriBlack0:
		return "black0"
	case TriBlack1:
		return "black1"
	default:
		return fmt.Sprintf("TriState(%d)", uint8(s))
	}
}

// Black reports whether the state presents as black.
func (s TriState) Black() bool { return s == TriBlack0 || s == TriBlack1 }

// threeStateProg is Definition 5 as a compiled lane program — the rule's
// one definition. Counter A counts black neighbors, counter B black1
// neighbors:
//
//	if c(u) = black1, or (c(u) = black0 and no neighbor is black1), or
//	   (c(u) = white and all neighbors are white):
//	     c'(u) = uniformly random in {black1, black0}
//	else if c(u) = black0:   c'(u) = white    // it has a black1 neighbor
//	else:                    c'(u) = c(u)     // white with a black neighbor
//
// The worklist therefore holds every black vertex plus the active whites.
// The encoding follows the kernel contract — lo is the black projection, so
// black0 is code 1 and black1 (the only counter-B state) is code 3 — and the
// hasBNbr lane carries "has a black1 neighbor", maintained incrementally
// from counter B's zero crossings (the black1→black0 demotion is its
// db = −1 step). Counter B counts each neighbor's last scattered class: a
// stable vertex (in I_t) keeps flipping black0/black1 but stops scattering
// the flips, because all its neighbors are whites with a black neighbor,
// whose touched and active bits do not read b. An active vertex's coin
// picks black1/black0; a black0 vertex that hears a black1 neighbor is
// touched-but-not-active and demotes to white with no coin. RefThreeState
// (reference.go) is its literal transcription.
var threeStateProg = kernel.MustCompile(kernel.Spec{
	StateOf: [4]uint8{uint8(TriWhite), uint8(TriBlack0), 0, uint8(TriBlack1)},
	UseB:    true,
	Active: kernel.TruthTable(func(code int, a, b bool) bool {
		switch code {
		case 3: // black1
			return true
		case 1: // black0
			return !b
		default: // white (code 2 unused; mirroring white minimizes best)
			return !a
		}
	}),
	Touched: kernel.TruthTable(func(code int, a, _ bool) bool {
		return code&1 == 1 || !a
	}),
	CoinHi:    [4]uint8{3, 3, 3, 3},
	CoinLo:    [4]uint8{1, 1, 1, 1},
	ForcedOn:  [4]uint8{0, 0, 0, 0},
	ForcedOff: [4]uint8{0, 0, 0, 0},
})

// ThreeState is the paper's 3-state MIS process (Definition 5), a thin
// wrapper over the shared frontier engine running threeStateProg. Stable black vertices alternate between
// black1 and black0 forever, so stabilization is detected through the
// monotone core I_t (black vertices with no black neighbors) covering the
// graph, not through state quiescence.
type ThreeState struct {
	core *engine.Core
	opts options
	// schedRng drives daemon selection (daemon.go), created on first use.
	schedRng *xrand.Rand
}

var _ Process = (*ThreeState)(nil)

// NewThreeState creates a 3-state process on g. With WithInitialBlack or the
// mask-based initializers, black vertices start in black1; InitRandom draws
// uniformly from all three states.
func NewThreeState(g *graph.Graph, opts ...Option) *ThreeState {
	o := buildOptions(opts)
	master := xrand.New(o.seed)
	n := g.N()
	state := stateBuf(n, o.ctx)
	irng := initStream(n, master)
	if o.initialBlack == nil && o.init == InitRandom {
		for u := 0; u < n; u++ {
			state[u] = uint8(1 + irng.Intn(3))
		}
	} else {
		for u, b := range initialBlackMask(g, o, irng) {
			s := uint8(TriWhite)
			if b {
				s = uint8(TriBlack1)
			}
			state[u] = s
		}
	}
	return &ThreeState{
		core: engine.New(g, threeStateProg, nil, state,
			splitVertexStreams(n, master, o.ctx), o.engine(false)),
		opts: o,
	}
}

// StabilizationTimes returns the per-vertex stabilization rounds recorded
// so far (-1 = not yet stable); nil unless WithLocalTimes was set.
func (p *ThreeState) StabilizationTimes() []int {
	return stabilizationTimes(p.core, p.opts)
}

// Name implements Process.
func (p *ThreeState) Name() string { return "3-state" }

// N implements Process.
func (p *ThreeState) N() int { return p.core.Graph().N() }

// Round implements Process.
func (p *ThreeState) Round() int { return p.core.Round() }

// States implements Process.
func (p *ThreeState) States() int { return 3 }

// RandomBits implements Process.
func (p *ThreeState) RandomBits() int64 { return p.core.Bits() }

// ActiveCount implements Process.
func (p *ThreeState) ActiveCount() int { return p.core.ActiveCount() }

// Black implements Process.
func (p *ThreeState) Black(u int) bool { return TriState(p.core.State(u)).Black() }

// State returns the full state of u.
func (p *ThreeState) State(u int) TriState { return TriState(p.core.State(u)) }

// Stabilized implements Process.
func (p *ThreeState) Stabilized() bool { return p.core.Stabilized() }

// Graph returns the underlying graph.
func (p *ThreeState) Graph() *graph.Graph { return p.core.Graph() }

// Step implements Process: one synchronous round of Definition 5.
func (p *ThreeState) Step() { p.core.Step() }

// Rebind switches the process to a new graph on the same vertex set,
// keeping all vertex states (topology churn). It panics on order mismatch.
func (p *ThreeState) Rebind(g *graph.Graph) { p.core.Rebind(g) }

// Corrupt overwrites the state of u mid-run and rebuilds the derived
// structures.
func (p *ThreeState) Corrupt(u int, s TriState) {
	p.core.States()[u] = uint8(s)
	p.core.Rebuild()
}
