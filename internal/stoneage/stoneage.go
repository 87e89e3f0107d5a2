// Package stoneage implements the paper's 3-state MIS process (Definition 5)
// and 3-color MIS process (Definition 28) as node programs for the
// synchronous stone age model: a constant number of beep channels, at most
// one beep per node per round, and no collision detection (a node's
// reception is independent of its own transmission).
//
// Channel alphabets:
//
//   - 3-state MIS: 2 channels — 0 carries "I am black1", 1 carries "I am
//     black0". White nodes stay silent. This is why the third state exists:
//     a black0 node that hears channel 0 knows it lost the symmetry-breaking
//     race without needing to detect a collision with its own beep.
//
//   - 3-color MIS: 12 channels encoding the pair (black?, switch level 0-5)
//     as level + 6·black. Every node beeps exactly one channel per round;
//     neighbors decode "some neighbor is black" and "maximum neighbor switch
//     level", the only two aggregates Definitions 26 and 28 consume.
//
// Node u's random stream is Split(u) of the master seed with the color coin
// drawn before the switch coin, identical to the array simulator in
// internal/mis, so runs agree coin-for-coin across engines.
package stoneage

import (
	"fmt"

	"ssmis/internal/graph"
	"ssmis/internal/mis"
	"ssmis/internal/noderun"
	"ssmis/internal/verify"
	"ssmis/internal/xrand"
)

// triNode is the per-vertex 3-state program.
type triNode struct {
	state mis.TriState
	rng   *xrand.Rand
	bits  int64
}

var _ noderun.Program = (*triNode)(nil)

// Emit implements noderun.Program.
func (nd *triNode) Emit() uint32 {
	switch nd.state {
	case mis.TriBlack1:
		return 1 << 0
	case mis.TriBlack0:
		return 1 << 1
	default:
		return 0
	}
}

// Deliver implements noderun.Program: the Definition 5 update rule.
func (nd *triNode) Deliver(heard uint32) {
	heardBlack1 := heard&(1<<0) != 0
	heardBlack := heard&(1<<0|1<<1) != 0
	randomize := false
	switch nd.state {
	case mis.TriBlack1:
		randomize = true
	case mis.TriBlack0:
		if heardBlack1 {
			nd.state = mis.TriWhite
		} else {
			randomize = true
		}
	default: // white; "all neighbors white" holds vacuously when isolated
		randomize = !heardBlack
	}
	if randomize {
		if nd.rng.Bit() {
			nd.state = mis.TriBlack1
		} else {
			nd.state = mis.TriBlack0
		}
		nd.bits++
	}
}

// ThreeStateProgramSet bundles the per-vertex 3-state programs with their
// observer-side accessors, decoupled from any particular medium:
// NewThreeStateMIS runs a set on the synchronous noderun engine, and
// internal/async runs one on the asynchronous per-node-clock medium.
type ThreeStateProgramSet struct {
	nodes []*triNode
}

// NewThreeStatePrograms builds the n per-vertex 3-state programs. Node u's
// random stream is Split(u) of the master seed; a nil initial draws the
// states from the init stream exactly as the simulator's InitRandom does.
// A non-nil initial must have length n and hold only white, black0 and
// black1.
func NewThreeStatePrograms(n int, seed uint64, initial []mis.TriState) *ThreeStateProgramSet {
	if initial != nil {
		if len(initial) != n {
			panic(fmt.Sprintf("stoneage: initial length %d != n %d", len(initial), n))
		}
		for u, s := range initial {
			switch s {
			case mis.TriWhite, mis.TriBlack0, mis.TriBlack1:
			default:
				panic(fmt.Sprintf("stoneage: initial[%d] = %v, not white, black0 or black1", u, s))
			}
		}
	}
	master := xrand.New(seed)
	nodes := make([]*triNode, n)
	var initRng *xrand.Rand
	if initial == nil {
		initRng = master.Split(uint64(n) + 1)
	}
	for u := 0; u < n; u++ {
		nd := &triNode{rng: master.Split(uint64(u))}
		if initial != nil {
			nd.state = initial[u]
		} else {
			nd.state = mis.TriState(1 + initRng.Intn(3))
		}
		nodes[u] = nd
	}
	return &ThreeStateProgramSet{nodes: nodes}
}

// Model returns the communication model the programs assume: the 2-channel
// stone age alphabet.
func (ps *ThreeStateProgramSet) Model() noderun.Model { return noderun.StoneAge(2) }

// Programs returns the per-vertex programs in vertex order.
func (ps *ThreeStateProgramSet) Programs() []noderun.Program {
	progs := make([]noderun.Program, len(ps.nodes))
	for u, nd := range ps.nodes {
		progs[u] = nd
	}
	return progs
}

// Black reports vertex u's color projection (valid between rounds).
func (ps *ThreeStateProgramSet) Black(u int) bool { return ps.nodes[u].state.Black() }

// State returns vertex u's full state.
func (ps *ThreeStateProgramSet) State(u int) mis.TriState { return ps.nodes[u].state }

// RandomBits returns the total random bits drawn across all programs.
func (ps *ThreeStateProgramSet) RandomBits() int64 {
	var total int64
	for _, nd := range ps.nodes {
		total += nd.bits
	}
	return total
}

// ThreeStateMIS runs the 3-state MIS protocol over the stone age medium.
type ThreeStateMIS struct {
	g      *graph.Graph
	engine *noderun.Engine
	ps     *ThreeStateProgramSet
}

// NewThreeStateMIS creates the protocol. initial may be nil for uniformly
// random states drawn exactly as the simulator's InitRandom does.
func NewThreeStateMIS(g *graph.Graph, seed uint64, initial []mis.TriState) *ThreeStateMIS {
	ps := NewThreeStatePrograms(g.N(), seed, initial)
	return &ThreeStateMIS{
		g:      g,
		engine: noderun.NewEngine(g, ps.Model(), ps.Programs()),
		ps:     ps,
	}
}

// Round returns the number of completed rounds.
func (m *ThreeStateMIS) Round() int { return m.engine.Round() }

// Black reports vertex u's color projection (valid between rounds).
func (m *ThreeStateMIS) Black(u int) bool { return m.ps.Black(u) }

// State returns vertex u's full state.
func (m *ThreeStateMIS) State(u int) mis.TriState { return m.ps.State(u) }

// RandomBits returns the total random bits drawn across all nodes.
func (m *ThreeStateMIS) RandomBits() int64 { return m.ps.RandomBits() }

// Stabilized reports whether N+(I) covers the graph (observer-side check).
func (m *ThreeStateMIS) Stabilized() bool {
	return verify.Unstable(m.g, m.Black).Empty()
}

// Run advances until stabilization or maxRounds.
func (m *ThreeStateMIS) Run(maxRounds int) (rounds int, stabilized bool) {
	return m.engine.RunUntil(maxRounds, m.Stabilized)
}

// colorNode is the per-vertex 3-color program: color plus switch level.
type colorNode struct {
	color mis.Color
	level uint8 // logarithmic-switch level 0..5
	rng   *xrand.Rand
	bits  int64
}

var _ noderun.Program = (*colorNode)(nil)

// threeColorChannels is the stone age alphabet size for the 3-color process.
const threeColorChannels = 12

// Emit implements noderun.Program: channel = level + 6·black.
func (nd *colorNode) Emit() uint32 {
	ch := uint(nd.level)
	if nd.color == mis.ColorBlack {
		ch += 6
	}
	return 1 << ch
}

// Deliver implements noderun.Program: Definition 28's color rule (reading
// the node's own switch value from its current level) followed by
// Definition 26's switch rule (reading the maximum level over N+).
func (nd *colorNode) Deliver(heard uint32) {
	heardBlack := heard>>6 != 0
	maxLevel := nd.level // max over N+ includes the node itself
	for l := uint8(0); l < 6; l++ {
		if heard&(1<<uint(l)|1<<uint(l+6)) != 0 && l > maxLevel {
			maxLevel = l
		}
	}
	switchOn := nd.level <= 2

	// Color rule first (color coin precedes switch coin on the stream).
	switch {
	case nd.color == mis.ColorBlack && heardBlack:
		if nd.rng.Bit() {
			nd.color = mis.ColorBlack
		} else {
			nd.color = mis.ColorGray
		}
		nd.bits++
	case nd.color == mis.ColorWhite && !heardBlack:
		if nd.rng.Bit() {
			nd.color = mis.ColorBlack
		} else {
			nd.color = mis.ColorWhite
		}
		nd.bits++
	case nd.color == mis.ColorGray && switchOn:
		nd.color = mis.ColorWhite
	}

	// Switch rule (Definition 26, ζ = 2^-7).
	stayTop := false
	if nd.level == 5 {
		leave := nd.rng.BernoulliPow2(7)
		nd.bits += 7
		stayTop = !leave
	}
	switch {
	case stayTop || nd.level == 0:
		nd.level = 5
	default:
		nd.level = maxLevel - 1
	}
}

// ThreeColorMIS runs the 3-color MIS protocol over the stone age medium.
type ThreeColorMIS struct {
	g      *graph.Graph
	engine *noderun.Engine
	nodes  []*colorNode
}

// NewThreeColorMIS creates the protocol. Colors and levels are drawn
// uniformly (matching the simulator's InitRandom) when initColors is nil.
// initLevels is given exactly when initColors is; both then have length
// g.N(), with colors white, black or gray and levels at most 5.
func NewThreeColorMIS(g *graph.Graph, seed uint64, initColors []mis.Color, initLevels []uint8) *ThreeColorMIS {
	n := g.N()
	checkThreeColorInit(n, initColors, initLevels)
	master := xrand.New(seed)
	nodes := make([]*colorNode, n)
	progs := make([]noderun.Program, n)
	var initRng *xrand.Rand
	if initColors == nil {
		initRng = master.Split(uint64(n) + 1)
	}
	for u := 0; u < n; u++ {
		nd := &colorNode{rng: master.Split(uint64(u))}
		if initColors != nil {
			nd.color = initColors[u]
			nd.level = initLevels[u]
		} else {
			nd.color = mis.Color(1 + initRng.Intn(3))
		}
		nodes[u] = nd
		progs[u] = nd
	}
	if initColors == nil {
		// The simulator randomizes all levels after all colors, from the
		// same init stream; replay that order exactly.
		for u := 0; u < n; u++ {
			nodes[u].level = uint8(initRng.Intn(6))
		}
	}
	return &ThreeColorMIS{
		g:      g,
		engine: noderun.NewEngine(g, noderun.StoneAge(threeColorChannels), progs),
		nodes:  nodes,
	}
}

// checkThreeColorInit panics unless initColors and initLevels are both nil
// or both length-n slices of valid colors and levels.
func checkThreeColorInit(n int, initColors []mis.Color, initLevels []uint8) {
	switch {
	case initColors == nil && initLevels == nil:
		return
	case initLevels == nil:
		panic("stoneage: initColors given without initLevels")
	case initColors == nil:
		panic("stoneage: initLevels given without initColors")
	}
	if len(initColors) != n {
		panic(fmt.Sprintf("stoneage: initColors length %d != n %d", len(initColors), n))
	}
	if len(initLevels) != n {
		panic(fmt.Sprintf("stoneage: initLevels length %d != n %d", len(initLevels), n))
	}
	for u, c := range initColors {
		switch c {
		case mis.ColorWhite, mis.ColorBlack, mis.ColorGray:
		default:
			panic(fmt.Sprintf("stoneage: initColors[%d] = %v, not white, black or gray", u, c))
		}
	}
	for u, l := range initLevels {
		if l > 5 {
			panic(fmt.Sprintf("stoneage: initLevels[%d] = %d above the top level 5", u, l))
		}
	}
}

// Round returns the number of completed rounds.
func (m *ThreeColorMIS) Round() int { return m.engine.Round() }

// Black reports vertex u's color projection (valid between rounds).
func (m *ThreeColorMIS) Black(u int) bool { return m.nodes[u].color == mis.ColorBlack }

// ColorOf returns vertex u's color.
func (m *ThreeColorMIS) ColorOf(u int) mis.Color { return m.nodes[u].color }

// Level returns vertex u's switch level.
func (m *ThreeColorMIS) Level(u int) uint8 { return m.nodes[u].level }

// RandomBits returns the total random bits drawn across all nodes.
func (m *ThreeColorMIS) RandomBits() int64 {
	var total int64
	for _, nd := range m.nodes {
		total += nd.bits
	}
	return total
}

// Stabilized reports whether N+(I) covers the graph (observer-side check).
func (m *ThreeColorMIS) Stabilized() bool {
	return verify.Unstable(m.g, m.Black).Empty()
}

// Run advances until stabilization or maxRounds.
func (m *ThreeColorMIS) Run(maxRounds int) (rounds int, stabilized bool) {
	return m.engine.RunUntil(maxRounds, m.Stabilized)
}
