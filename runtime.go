package ssmis

import (
	"ssmis/internal/async"
	"ssmis/internal/beeping"
	"ssmis/internal/stoneage"
)

// BeepingMIS is the 2-state MIS process running as one node program per
// vertex under the beeping model with sender collision detection: black
// nodes beep, white nodes listen, and a node that finds its color
// inconsistent with what it heard re-randomizes.
type BeepingMIS = beeping.MIS

// NewBeepingMIS starts the beeping-model protocol on g. initialBlack may be
// nil for a uniformly random initial coloring; otherwise it must have length
// g.N(). The execution is coin-for-coin identical to NewTwoState(g,
// WithSeed(seed)) — the shared frontier engine and the message-passing
// runtime are two engines for one process, asserted across graph families
// by the cross-engine equivalence tests.
func NewBeepingMIS(g *Graph, seed uint64, initialBlack []bool) *BeepingMIS {
	return beeping.NewMIS(g, seed, initialBlack)
}

// StoneAgeThreeState is the 3-state MIS process running under the
// synchronous stone age model (2 beep channels, no collision detection).
type StoneAgeThreeState = stoneage.ThreeStateMIS

// NewStoneAgeThreeState starts the stone-age 3-state protocol on g.
func NewStoneAgeThreeState(g *Graph, seed uint64) *StoneAgeThreeState {
	return stoneage.NewThreeStateMIS(g, seed, nil)
}

// StoneAgeThreeColor is the 18-state 3-color MIS process running under the
// synchronous stone age model (12 beep channels encoding color × switch
// level).
type StoneAgeThreeColor = stoneage.ThreeColorMIS

// NewStoneAgeThreeColor starts the stone-age 3-color protocol on g.
func NewStoneAgeThreeColor(g *Graph, seed uint64) *StoneAgeThreeColor {
	return stoneage.NewThreeColorMIS(g, seed, nil, nil)
}

// Drift is a per-node clock model for the asynchronous beeping medium: it
// decides how long each local slot lasts, within the drift bound
// ρ = (longest slot)/(shortest slot). ρ = 1 collapses the medium to
// lockstep synchrony.
type Drift = async.Drift

// BoundedDrift returns the bounded-drift clock model: every slot length is
// drawn independently and uniformly within the bound rho >= 1.
func BoundedDrift(rho float64) Drift { return async.NewBounded(rho) }

// EventualSyncDrift returns the GST-style eventual-synchrony model: clocks
// drift within rho until gstSlots base slots of virtual time have passed
// and run at the base rate afterwards (rates synchronize, phases stay
// offset).
func EventualSyncDrift(rho float64, gstSlots int) Drift { return async.NewEventualSync(rho, gstSlots) }

// AdversarialDrift returns the deterministic worst case within rho:
// even-indexed nodes always run their fastest slots and odd-indexed nodes
// their slowest, sustaining the maximum rate gap the bound allows.
func AdversarialDrift(rho float64) Drift { return async.NewAdversarial(rho) }

// AsyncMIS is the 2-state MIS process running on the asynchronous beeping
// medium: per-node clocks advanced by a drift model, beeps occupying real
// slot intervals, and interval-overlap hearing. At ρ = 1 an execution is
// coin-for-coin identical to NewBeepingMIS (and so to NewTwoState).
type AsyncMIS = async.MIS

// NewAsyncMIS starts the 2-state protocol on the asynchronous medium.
// initialBlack may be nil for a uniformly random initial coloring; otherwise
// it must have length g.N().
func NewAsyncMIS(g *Graph, seed uint64, drift Drift, initialBlack []bool) *AsyncMIS {
	return async.NewMIS(g, seed, drift, initialBlack)
}

// AsyncThreeState is the 3-state MIS process running on the asynchronous
// 2-channel stone age medium. At ρ = 1 an execution is coin-for-coin
// identical to NewStoneAgeThreeState (and so to NewThreeState).
type AsyncThreeState = async.ThreeStateMIS

// NewAsyncThreeState starts the 3-state protocol on the asynchronous
// medium.
func NewAsyncThreeState(g *Graph, seed uint64, drift Drift) *AsyncThreeState {
	return async.NewThreeStateMIS(g, seed, drift, nil)
}
