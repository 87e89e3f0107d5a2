// Package beeping implements the paper's 2-state MIS process as a node
// program for the beeping model with sender collision detection
// (full-duplex), running on the synchronous node-program engine of
// internal/noderun.
//
// The translation is the one described in the paper's introduction: black
// nodes beep every round, white nodes listen. A black node that hears a beep
// has a black neighbor (this needs full-duplex); a white node that hears
// silence has none. In either case the node is "active" and resets to a
// uniformly random color using a single fresh random bit.
//
// Node u's random stream is Split(u) of the master seed, identical to the
// array simulator in internal/mis, so a beeping run and a simulator run with
// the same (graph, seed, initial colors) produce identical executions
// round-for-round.
package beeping

import (
	"fmt"

	"ssmis/internal/graph"
	"ssmis/internal/noderun"
	"ssmis/internal/verify"
	"ssmis/internal/xrand"
)

// node is the per-vertex 2-state program. It knows nothing but its own color
// and its own coin stream.
type node struct {
	black bool
	rng   *xrand.Rand
	bits  int64
}

var _ noderun.Program = (*node)(nil)

// Emit implements noderun.Program: black nodes beep on the single channel.
func (nd *node) Emit() uint32 {
	if nd.black {
		return 1
	}
	return 0
}

// Deliver implements noderun.Program: the 2-state update rule. heard bit 0
// is "some neighbor beeped", i.e. "some neighbor is black".
func (nd *node) Deliver(heard uint32) {
	blackNeighbor := heard&1 != 0
	active := nd.black == blackNeighbor
	if active {
		nd.black = nd.rng.Bit()
		nd.bits++
	}
}

// ProgramSet bundles the per-vertex 2-state programs with their
// observer-side accessors, decoupled from any particular medium: NewMIS runs
// a set on the synchronous noderun engine, and internal/async runs one on
// the asynchronous per-node-clock medium. The programs themselves cannot
// tell the difference — they only ever see Emit/Deliver.
type ProgramSet struct {
	nodes []*node
}

// NewPrograms builds the n per-vertex 2-state programs. Node u's random
// stream is Split(u) of the master seed, and a nil initialBlack draws the
// initial colors from the init stream exactly as the simulator's InitRandom
// does — the same coin contract as NewMIS, so executions replay the
// simulator coin-for-coin on any medium that delivers synchronous-equivalent
// feedback. A non-nil initialBlack must have length n.
func NewPrograms(n int, seed uint64, initialBlack []bool) *ProgramSet {
	if initialBlack != nil && len(initialBlack) != n {
		panic(fmt.Sprintf("beeping: initialBlack length %d != n %d", len(initialBlack), n))
	}
	master := xrand.New(seed)
	nodes := make([]*node, n)
	var initRng *xrand.Rand
	if initialBlack == nil {
		initRng = master.Split(uint64(n) + 1)
	}
	for u := 0; u < n; u++ {
		nd := &node{rng: master.Split(uint64(u))}
		if initialBlack != nil {
			nd.black = initialBlack[u]
		} else {
			nd.black = initRng.Bit()
		}
		nodes[u] = nd
	}
	return &ProgramSet{nodes: nodes}
}

// Model returns the communication model the programs assume: beeping with
// sender collision detection.
func (ps *ProgramSet) Model() noderun.Model { return noderun.BeepingCD() }

// Programs returns the per-vertex programs in vertex order.
func (ps *ProgramSet) Programs() []noderun.Program {
	progs := make([]noderun.Program, len(ps.nodes))
	for u, nd := range ps.nodes {
		progs[u] = nd
	}
	return progs
}

// Black reports vertex u's current color (valid between rounds).
func (ps *ProgramSet) Black(u int) bool { return ps.nodes[u].black }

// RandomBits returns the total random bits drawn across all programs.
func (ps *ProgramSet) RandomBits() int64 {
	var total int64
	for _, nd := range ps.nodes {
		total += nd.bits
	}
	return total
}

// MIS runs the 2-state MIS protocol over the beeping medium on g.
type MIS struct {
	g      *graph.Graph
	engine *noderun.Engine
	ps     *ProgramSet
}

// NewMIS creates the protocol instance. initialBlack may be nil for a
// uniformly random initial coloring (drawn exactly as the simulator's
// InitRandom does, from the master seed's init stream).
func NewMIS(g *graph.Graph, seed uint64, initialBlack []bool) *MIS {
	ps := NewPrograms(g.N(), seed, initialBlack)
	return &MIS{
		g:      g,
		engine: noderun.NewEngine(g, ps.Model(), ps.Programs()),
		ps:     ps,
	}
}

// Round returns the number of completed rounds.
func (m *MIS) Round() int { return m.engine.Round() }

// Black reports vertex u's current color (valid between rounds).
func (m *MIS) Black(u int) bool { return m.ps.Black(u) }

// RandomBits returns the total random bits drawn across all nodes.
func (m *MIS) RandomBits() int64 { return m.ps.RandomBits() }

// Stabilized reports whether no vertex is active, i.e. the black set is an
// MIS. This is an observer-side check (the nodes themselves cannot detect
// global stabilization — nor do they need to: stabilization is a property of
// the execution, not a node output).
func (m *MIS) Stabilized() bool {
	return verify.Unstable(m.g, m.Black).Empty()
}

// Run advances until stabilization or maxRounds and reports the rounds
// executed and whether the protocol stabilized.
func (m *MIS) Run(maxRounds int) (rounds int, stabilized bool) {
	return m.engine.RunUntil(maxRounds, m.Stabilized)
}
