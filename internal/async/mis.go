package async

import (
	"ssmis/internal/beeping"
	"ssmis/internal/graph"
	"ssmis/internal/mis"
	"ssmis/internal/stoneage"
	"ssmis/internal/verify"
)

// MIS runs the paper's 2-state MIS protocol — the exact per-node programs of
// internal/beeping — over the asynchronous beeping-with-collision-detection
// medium. At ρ = 1 the execution is coin-for-coin the synchronous
// beeping.MIS execution.
type MIS struct {
	g      *graph.Graph
	engine *Engine
	ps     *beeping.ProgramSet
}

// NewMIS creates the protocol instance under the given drift model.
// initialBlack may be nil for a uniformly random initial coloring (drawn
// exactly as the simulator's InitRandom does).
func NewMIS(g *graph.Graph, seed uint64, drift Drift, initialBlack []bool) *MIS {
	ps := beeping.NewPrograms(g.N(), seed, initialBlack)
	return &MIS{
		g:      g,
		engine: NewEngine(g, ps.Model(), ps.Programs(), drift, seed),
		ps:     ps,
	}
}

// Engine returns the underlying asynchronous medium, for instrumentation
// (skew, virtual time, observed slot lengths).
func (m *MIS) Engine() *Engine { return m.engine }

// Rounds returns the completed virtual rounds (the slowest node's slots).
func (m *MIS) Rounds() int { return m.engine.Rounds() }

// Black reports vertex u's current color.
func (m *MIS) Black(u int) bool { return m.ps.Black(u) }

// RandomBits returns the total random bits drawn across all nodes.
func (m *MIS) RandomBits() int64 { return m.ps.RandomBits() }

// Stabilized reports whether the black set is an MIS (observer-side check,
// as in the synchronous runtimes).
func (m *MIS) Stabilized() bool {
	return verify.Unstable(m.g, m.Black).Empty()
}

// Run advances until stabilization or maxRounds virtual rounds and reports
// the first round of the stable configuration and whether the protocol
// stabilized. Under drift (ρ > 1) stabilization is CONFIRMED: the stable
// configuration must persist, black projection unchanged, for a full
// influence horizon, because a stale beep interval can reactivate a covered
// vertex right after a naive snapshot check (see Engine.RunConfirmed). At
// ρ = 1 this is exactly the synchronous runtime's Run.
func (m *MIS) Run(maxRounds int) (rounds int, stabilized bool) {
	return m.engine.RunConfirmed(maxRounds, m.Stabilized, m.Black)
}

// ThreeStateMIS runs the paper's 3-state MIS protocol — the exact per-node
// programs of internal/stoneage — over the asynchronous 2-channel stone age
// medium. At ρ = 1 the execution is coin-for-coin the synchronous
// stoneage.ThreeStateMIS execution.
type ThreeStateMIS struct {
	g      *graph.Graph
	engine *Engine
	ps     *stoneage.ThreeStateProgramSet
}

// NewThreeStateMIS creates the protocol instance under the given drift
// model. initial may be nil for uniformly random states (drawn exactly as
// the simulator's InitRandom does).
func NewThreeStateMIS(g *graph.Graph, seed uint64, drift Drift, initial []mis.TriState) *ThreeStateMIS {
	ps := stoneage.NewThreeStatePrograms(g.N(), seed, initial)
	return &ThreeStateMIS{
		g:      g,
		engine: NewEngine(g, ps.Model(), ps.Programs(), drift, seed),
		ps:     ps,
	}
}

// Engine returns the underlying asynchronous medium.
func (m *ThreeStateMIS) Engine() *Engine { return m.engine }

// Rounds returns the completed virtual rounds.
func (m *ThreeStateMIS) Rounds() int { return m.engine.Rounds() }

// Black reports vertex u's color projection.
func (m *ThreeStateMIS) Black(u int) bool { return m.ps.Black(u) }

// State returns vertex u's full state.
func (m *ThreeStateMIS) State(u int) mis.TriState { return m.ps.State(u) }

// RandomBits returns the total random bits drawn across all nodes.
func (m *ThreeStateMIS) RandomBits() int64 { return m.ps.RandomBits() }

// Stabilized reports whether N+(I) covers the graph (observer-side check).
func (m *ThreeStateMIS) Stabilized() bool {
	return verify.Unstable(m.g, m.Black).Empty()
}

// Run advances until stabilization or maxRounds virtual rounds, with the
// same drift-confirmed semantics as MIS.Run: under ρ > 1 the stable
// configuration must persist for a full influence horizon before the run
// reports it (first-observed round returned); at ρ = 1 this is exactly the
// synchronous runtime's Run.
func (m *ThreeStateMIS) Run(maxRounds int) (rounds int, stabilized bool) {
	return m.engine.RunConfirmed(maxRounds, m.Stabilized, m.Black)
}
