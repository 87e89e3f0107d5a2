// Package noderun is the distributed execution substrate: it runs one
// program per graph vertex and advances them in synchronous rounds through a
// broadcast medium, the way the beeping and stone age models define
// computation. Node programs only ever see their own state, their own random
// stream, and the per-channel feedback from the medium — they have no access
// to the graph, to other nodes, or to global information, which is exactly
// the locality discipline the paper's algorithms claim.
//
// A round proceeds in two phases:
//
//  1. every node emits a set of beep channels (possibly empty);
//  2. the medium ORs each channel over each node's neighborhood and delivers
//     the resulting feedback mask, upon which the node updates its state.
//
// The engine calls every Emit, in vertex order, before any Deliver, so
// every beep a node hears was emitted from its neighbor's state at the start
// of the round. Each node draws coins only from its own stream, so the order
// of the calls cannot change a coin.
//
// The medium enforces the communication model's constraints: the beeping
// model allows a single channel and, without sender collision detection,
// masks a beeping node's own feedback; the stone age model allows a constant
// number of channels with at most one beep per node per round.
package noderun

import (
	"fmt"
	"math/bits"

	"ssmis/internal/graph"
)

// Program is a per-node protocol state machine. Implementations must not
// share mutable state across nodes.
type Program interface {
	// Emit returns the bitmask of channels this node beeps on this round.
	Emit() uint32
	// Deliver hands the node the feedback mask for the round — bit c set iff
	// at least one neighbor beeped on channel c, after model masking — and
	// the node updates its state.
	Deliver(heard uint32)
}

// Model describes the communication-model constraints the medium enforces.
type Model struct {
	// Name for error messages and reports, e.g. "beeping-cd".
	Name string
	// Channels is the number of usable channels (1 for beeping).
	Channels int
	// MaxBeepsPerNode bounds how many channels one node may use in a round
	// (1 in both the beeping and stone age models; 0 means unlimited).
	MaxBeepsPerNode int
	// SenderCollisionDetection: when false, a node that beeped on channel c
	// does not hear channel c that round (classic beeping); when true, the
	// full-duplex model of the paper's 2-state process.
	SenderCollisionDetection bool
}

// BeepingCD is the beeping model with sender collision detection
// (full-duplex), the model of the paper's 2-state process.
func BeepingCD() Model {
	return Model{Name: "beeping-cd", Channels: 1, MaxBeepsPerNode: 1, SenderCollisionDetection: true}
}

// StoneAge is the synchronous stone age model: a constant number of beep
// channels, at most one beep per node per round, and message reception
// independent of own transmission (so no collision-detection issue arises).
func StoneAge(channels int) Model {
	return Model{Name: "stone-age", Channels: channels, MaxBeepsPerNode: 1, SenderCollisionDetection: true}
}

// Engine drives the node programs over a graph under a model. Create with
// NewEngine.
type Engine struct {
	g     *graph.Graph
	model Model
	progs []Program
	round int

	emits []uint32
}

// NewEngine creates an engine. progs[u] is vertex u's program; len(progs)
// must equal g.N().
func NewEngine(g *graph.Graph, model Model, progs []Program) *Engine {
	if len(progs) != g.N() {
		panic(fmt.Sprintf("noderun: %d programs for %d vertices", len(progs), g.N()))
	}
	if model.Channels < 1 || model.Channels > 32 {
		panic(fmt.Sprintf("noderun: channels %d out of [1,32]", model.Channels))
	}
	return &Engine{
		g:     g,
		model: model,
		progs: progs,
		emits: make([]uint32, g.N()),
	}
}

// Round returns the number of completed rounds.
func (e *Engine) Round() int { return e.round }

// Step executes one synchronous round. It panics if a program violates the
// model's beep constraints — protocol bugs, not runtime conditions.
func (e *Engine) Step() {
	chanMask := uint32(1)<<uint(e.model.Channels) - 1

	for u, p := range e.progs {
		m := p.Emit()
		if m&^chanMask != 0 {
			panic(fmt.Sprintf("noderun: node %d beeped outside the %d-channel alphabet (%s model)",
				u, e.model.Channels, e.model.Name))
		}
		if e.model.MaxBeepsPerNode > 0 && bits.OnesCount32(m) > e.model.MaxBeepsPerNode {
			panic(fmt.Sprintf("noderun: node %d beeped on %d channels, max %d (%s model)",
				u, bits.OnesCount32(m), e.model.MaxBeepsPerNode, e.model.Name))
		}
		e.emits[u] = m
	}

	// The medium: per-node OR over the neighborhood.
	for u, p := range e.progs {
		var h uint32
		for _, v := range e.g.Neighbors(u) {
			h |= e.emits[v]
		}
		if !e.model.SenderCollisionDetection {
			// A beeping radio cannot listen on the channel it transmits on.
			h &^= e.emits[u]
		}
		p.Deliver(h)
	}
	e.round++
}

// RunUntil advances the engine until stop returns true (checked between
// rounds) or maxRounds elapse. It returns the number of rounds executed and
// whether stop fired.
func (e *Engine) RunUntil(maxRounds int, stop func() bool) (rounds int, stopped bool) {
	for e.round < maxRounds {
		if stop() {
			return e.round, true
		}
		e.Step()
	}
	return e.round, stop()
}
