package mis

// Reference implementations: direct, unoptimized transcriptions of
// Definitions 4, 5 and 28 with no incremental counters, no fast paths and
// no early exits. They exist solely as differential-testing oracles for the
// optimized simulators — each Step recomputes everything from the state
// vector in O(n·Δ). They consume randomness through the same per-vertex
// streams, so a reference run and an optimized run with equal (graph, seed,
// initial states) must agree exactly, state for state, round for round.

import (
	"ssmis/internal/graph"
	"ssmis/internal/phaseclock"
	"ssmis/internal/xrand"
)

// RefTwoState is the oracle for TwoState.
type RefTwoState struct {
	g     *graph.Graph
	black []bool
	rngs  []*xrand.Rand
}

// NewRefTwoState creates the oracle with the given initial colors (copied).
func NewRefTwoState(g *graph.Graph, seed uint64, initial []bool) *RefTwoState {
	master := xrand.New(seed)
	return &RefTwoState{
		g:     g,
		black: append([]bool(nil), initial...),
		rngs:  splitVertexStreams(g.N(), master, nil, nil),
	}
}

// Black reports the color of u.
func (p *RefTwoState) Black(u int) bool { return p.black[u] }

func (p *RefTwoState) hasBlackNeighbor(u int, colors []bool) bool {
	for _, v := range p.g.Neighbors(u) {
		if colors[v] {
			return true
		}
	}
	return false
}

// Step is the verbatim Definition 4 rule.
func (p *RefTwoState) Step() {
	next := make([]bool, len(p.black))
	for u := range p.black {
		blackNbr := p.hasBlackNeighbor(u, p.black)
		active := (p.black[u] && blackNbr) || (!p.black[u] && !blackNbr)
		if active {
			next[u] = p.rngs[u].Bit()
		} else {
			next[u] = p.black[u]
		}
	}
	p.black = next
}

// Stabilized recomputes the activity predicate from scratch.
func (p *RefTwoState) Stabilized() bool {
	for u := range p.black {
		blackNbr := p.hasBlackNeighbor(u, p.black)
		if (p.black[u] && blackNbr) || (!p.black[u] && !blackNbr) {
			return false
		}
	}
	return true
}

// RefThreeState is the oracle for ThreeState.
type RefThreeState struct {
	g     *graph.Graph
	state []TriState
	rngs  []*xrand.Rand
}

// NewRefThreeState creates the oracle with the given initial states (copied).
func NewRefThreeState(g *graph.Graph, seed uint64, initial []TriState) *RefThreeState {
	master := xrand.New(seed)
	return &RefThreeState{
		g:     g,
		state: append([]TriState(nil), initial...),
		rngs:  splitVertexStreams(g.N(), master, nil, nil),
	}
}

// State returns u's current state.
func (p *RefThreeState) State(u int) TriState { return p.state[u] }

// Step is the verbatim Definition 5 rule.
func (p *RefThreeState) Step() {
	next := make([]TriState, len(p.state))
	for u := range p.state {
		var hasBlack1, hasBlack bool
		for _, v := range p.g.Neighbors(u) {
			if p.state[v] == TriBlack1 {
				hasBlack1 = true
			}
			if p.state[v].Black() {
				hasBlack = true
			}
		}
		switch {
		case p.state[u] == TriBlack1,
			p.state[u] == TriBlack0 && !hasBlack1,
			p.state[u] == TriWhite && !hasBlack:
			if p.rngs[u].Bit() {
				next[u] = TriBlack1
			} else {
				next[u] = TriBlack0
			}
		case p.state[u] == TriBlack0:
			next[u] = TriWhite
		default:
			next[u] = p.state[u]
		}
	}
	p.state = next
}

// RefThreeColor is the oracle for ThreeColor, including its own verbatim
// copy of the Definition 26 switch rule.
type RefThreeColor struct {
	g     *graph.Graph
	color []Color
	level []uint8
	rngs  []*xrand.Rand
	zetaK uint
}

// NewRefThreeColor creates the oracle with the given initial colors and
// switch levels (copied); ζ = 2^-7 as in Definition 28.
func NewRefThreeColor(g *graph.Graph, seed uint64, colors []Color, levels []uint8) *RefThreeColor {
	master := xrand.New(seed)
	return &RefThreeColor{
		g:     g,
		color: append([]Color(nil), colors...),
		level: append([]uint8(nil), levels...),
		rngs:  splitVertexStreams(g.N(), master, nil, nil),
		zetaK: phaseclock.DefaultZetaLog2,
	}
}

// ColorOf returns u's color.
func (p *RefThreeColor) ColorOf(u int) Color { return p.color[u] }

// Level returns u's switch level.
func (p *RefThreeColor) Level(u int) uint8 { return p.level[u] }

// Step is the verbatim Definition 28 color rule (reading σ_{t-1} off the
// current levels) followed by the Definition 26 switch rule, with the color
// coin drawn before the switch coin on each vertex's stream.
func (p *RefThreeColor) Step() {
	n := p.g.N()
	nextColor := make([]Color, n)
	nextLevel := make([]uint8, n)
	for u := 0; u < n; u++ {
		hasBlack := false
		for _, v := range p.g.Neighbors(u) {
			if p.color[v] == ColorBlack {
				hasBlack = true
				break
			}
		}
		on := p.level[u] <= 2
		switch {
		case p.color[u] == ColorBlack && hasBlack:
			if p.rngs[u].Bit() {
				nextColor[u] = ColorBlack
			} else {
				nextColor[u] = ColorGray
			}
		case p.color[u] == ColorWhite && !hasBlack:
			if p.rngs[u].Bit() {
				nextColor[u] = ColorBlack
			} else {
				nextColor[u] = ColorWhite
			}
		case p.color[u] == ColorGray && on:
			nextColor[u] = ColorWhite
		default:
			nextColor[u] = p.color[u]
		}

		stayTop := false
		if p.level[u] == 5 {
			leave := p.rngs[u].BernoulliPow2(p.zetaK)
			stayTop = !leave
		}
		switch {
		case stayTop || p.level[u] == 0:
			nextLevel[u] = 5
		default:
			maxL := p.level[u]
			for _, v := range p.g.Neighbors(u) {
				if p.level[v] > maxL {
					maxL = p.level[v]
				}
			}
			nextLevel[u] = maxL - 1
		}
	}
	p.color = nextColor
	p.level = nextLevel
}
