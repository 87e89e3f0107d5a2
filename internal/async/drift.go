package async

import (
	"fmt"
	"math"

	"ssmis/internal/xrand"
)

// SlotTicks is the base (fastest legal) slot length in clock ticks. Every
// drift model must produce slot lengths in [SlotTicks, MaxSlotTicks(ρ)];
// the engine enforces the bound and panics on violations, the way noderun
// panics on alphabet violations — a drift implementation outside its own
// bound is a model bug, not a runtime condition.
const SlotTicks = 1 << 16

// MaxRho is the largest accepted drift bound. Beyond it ρ·SlotTicks would
// approach int64 overflow territory, and no experiment needs clocks a
// million times apart — reject loudly instead of panicking on a nonsense
// slot bound.
const MaxRho = 1 << 20

// MaxSlotTicks returns the longest slot length the drift bound ρ permits.
func MaxSlotTicks(rho float64) int64 {
	return int64(math.Round(checkRho(rho) * float64(SlotTicks)))
}

// Drift is a per-node clock model: it decides how long each local slot
// lasts, within the bound ρ = (longest slot)/(shortest slot).
type Drift interface {
	// Name identifies the model for reports and flags.
	Name() string
	// Rho returns the drift bound ρ >= 1; ρ = 1 forces every slot to the
	// base length, collapsing the medium to lockstep synchrony.
	Rho() float64
	// SlotLen returns the tick length of node u's slot k starting at tick
	// start, drawing any randomness from clock — the node's dedicated clock
	// stream, disjoint from the protocol's coin streams, so clock noise
	// never perturbs the protocol's coins.
	SlotLen(u, k int, start int64, clock *xrand.Rand) int64
}

// checkRho validates a drift bound; NaN, values below 1 and values above
// MaxRho fail.
func checkRho(rho float64) float64 {
	if !(rho >= 1 && rho <= MaxRho) {
		panic(fmt.Sprintf("async: drift bound ρ = %v outside [1, %d]", rho, int64(MaxRho)))
	}
	return rho
}

// Bounded is the bounded-drift model: every slot length is drawn
// independently and uniformly from [SlotTicks, MaxSlotTicks(ρ)].
type Bounded struct {
	rho float64
}

// NewBounded returns the bounded-drift model with bound rho; rho < 1 (or
// NaN) panics.
func NewBounded(rho float64) Bounded { return Bounded{rho: checkRho(rho)} }

// Name implements Drift.
func (Bounded) Name() string { return "bounded" }

// Rho implements Drift.
func (d Bounded) Rho() float64 { return d.rho }

// SlotLen implements Drift.
func (d Bounded) SlotLen(_, _ int, _ int64, clock *xrand.Rand) int64 {
	span := MaxSlotTicks(d.rho) - SlotTicks
	return SlotTicks + int64(clock.Uint64n(uint64(span)+1))
}

// EventualSync is the GST-style eventual-synchrony model: slots starting
// before the global stabilization time (gst base slots) have arbitrary
// lengths within the bound, and slots starting at or after it run at
// exactly the base rate — clock RATES synchronize after GST, but phases
// stay offset, which is precisely what eventual synchrony promises.
type EventualSync struct {
	rho float64
	gst int
}

// NewEventualSync returns the eventual-synchrony model: drift within rho
// until gstSlots base-slot ticks of virtual time have passed, lockstep
// rates afterwards. gstSlots < 0 panics.
func NewEventualSync(rho float64, gstSlots int) EventualSync {
	if gstSlots < 0 {
		panic(fmt.Sprintf("async: GST %d base slots is negative", gstSlots))
	}
	return EventualSync{rho: checkRho(rho), gst: gstSlots}
}

// Name implements Drift.
func (EventualSync) Name() string { return "eventual-sync" }

// Rho implements Drift.
func (d EventualSync) Rho() float64 { return d.rho }

// SlotLen implements Drift.
func (d EventualSync) SlotLen(_, _ int, start int64, clock *xrand.Rand) int64 {
	if start >= int64(d.gst)*SlotTicks {
		return SlotTicks
	}
	span := MaxSlotTicks(d.rho) - SlotTicks
	return SlotTicks + int64(clock.Uint64n(uint64(span)+1))
}

// Adversarial is the deterministic worst case within ρ: even-indexed nodes
// always run their fastest slots and odd-indexed nodes always their
// slowest, so adjacent clocks sustain the maximum rate gap the bound allows
// for the whole execution (a randomly drifting clock only strays this far
// transiently).
type Adversarial struct {
	rho float64
}

// NewAdversarial returns the adversarial-within-ρ model; rho < 1 panics.
func NewAdversarial(rho float64) Adversarial { return Adversarial{rho: checkRho(rho)} }

// Name implements Drift.
func (Adversarial) Name() string { return "adversarial" }

// Rho implements Drift.
func (d Adversarial) Rho() float64 { return d.rho }

// SlotLen implements Drift.
func (d Adversarial) SlotLen(u, _ int, _ int64, _ *xrand.Rand) int64 {
	if u%2 == 0 {
		return SlotTicks
	}
	return MaxSlotTicks(d.rho)
}

// DriftNames lists the selectable drift models in presentation order.
func DriftNames() []string {
	return []string{"bounded", "eventual-sync", "adversarial"}
}

// DriftByName returns a drift model by name. gstSlots applies only to
// eventual-sync.
func DriftByName(name string, rho float64, gstSlots int) (Drift, error) {
	if !(rho >= 1 && rho <= MaxRho) {
		return nil, fmt.Errorf("async: drift bound ρ = %v outside [1, %d]", rho, int64(MaxRho))
	}
	switch name {
	case "bounded":
		return NewBounded(rho), nil
	case "eventual-sync":
		if gstSlots < 0 {
			return nil, fmt.Errorf("async: GST %d base slots is negative", gstSlots)
		}
		return NewEventualSync(rho, gstSlots), nil
	case "adversarial":
		return NewAdversarial(rho), nil
	default:
		return nil, fmt.Errorf("async: unknown drift model %q", name)
	}
}
