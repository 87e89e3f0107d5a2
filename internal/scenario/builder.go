package scenario

// The fluent builder: Go callers assemble a scenario without writing JSON.
// Methods chain and never fail mid-stream — construction problems accumulate
// and Build() reports every one at once alongside the full cross-axis
// validation, so a caller fixes a whole mis-declared scenario in one round
// trip instead of whack-a-mole. (The accumulate-then-Build shape follows the
// workflow-graph builders this layer's design borrows from.)

import "fmt"

// Builder assembles a Scenario fluently.
type Builder struct {
	s    Scenario
	errs []string
}

// New starts a scenario with the given name (the compiled experiment's ID).
func New(name string) *Builder {
	return &Builder{s: Scenario{Name: name}}
}

// Title sets the compiled experiment's title line.
func (b *Builder) Title(t string) *Builder { b.s.Title = t; return b }

// Build assembles the scenario and validates it, returning every
// construction and validation issue in one *ValidationError.
func (b *Builder) Build() (*Scenario, error) {
	issues := append([]string(nil), b.errs...)
	if err := b.s.Validate(); err != nil {
		issues = append(issues, err.(*ValidationError).Issues...)
	}
	if len(issues) > 0 {
		return nil, &ValidationError{Issues: issues}
	}
	s := b.s
	return &s, nil
}

// Params is the parameter-binding literal for Graph calls.
type Params map[string]float64

// Scaling appends a scaling unit and returns its sub-builder.
func (b *Builder) Scaling(title string) *ScalingBuilder {
	u := &ScalingUnit{Type: "scaling", Title: title}
	b.s.Units = append(b.s.Units, Unit{Scaling: u})
	return &ScalingBuilder{b: b, u: u}
}

// ScalingBuilder configures one scaling unit.
type ScalingBuilder struct {
	b *Builder
	u *ScalingUnit
}

// Process selects the process kind ("2-state", "3-state", "3-color").
func (sb *ScalingBuilder) Process(kind string) *ScalingBuilder {
	sb.u.Process = kind
	return sb
}

// Graph selects the graph family and binds its parameters (nil for none).
func (sb *ScalingBuilder) Graph(family string, params Params) *ScalingBuilder {
	sb.u.Graph = GraphSpec{Family: family, Params: params}
	return sb
}

// Sizes sets the size ladder.
func (sb *ScalingBuilder) Sizes(sizes ...int) *ScalingBuilder {
	sb.u.Sizes = sizes
	return sb
}

// Trials sets the scale-1 trial count.
func (sb *ScalingBuilder) Trials(t int) *ScalingBuilder { sb.u.Trials = t; return sb }

// RoundCap bounds each run (0 = the runtime's default).
func (sb *ScalingBuilder) RoundCap(c int) *ScalingBuilder { sb.u.RoundCap = c; return sb }

// SeedOffset shifts the cell master seeds.
func (sb *ScalingBuilder) SeedOffset(o uint64) *ScalingBuilder { sb.u.SeedOffset = o; return sb }

// Runtime selects a driftless medium: "sync", "beeping" or "stone-age".
// Async needs a drift model — use AsyncBounded/AsyncEventualSync/
// AsyncAdversarial, which this method rejects by name to keep the
// constraint loud at construction time.
func (sb *ScalingBuilder) Runtime(kind string) *ScalingBuilder {
	if kind == "async" {
		sb.b.errs = append(sb.b.errs,
			fmt.Sprintf("scaling %q: Runtime(\"async\") needs a drift model; use AsyncBounded, AsyncEventualSync or AsyncAdversarial", sb.u.Title))
		return sb
	}
	sb.u.Runtime = &RuntimeSpec{Kind: kind}
	return sb
}

// AsyncBounded selects the async runtime under the bounded-drift model.
func (sb *ScalingBuilder) AsyncBounded(rho float64) *ScalingBuilder {
	sb.u.Runtime = &RuntimeSpec{Kind: "async", Drift: &DriftSpec{Model: "bounded", Rho: rho}}
	return sb
}

// AsyncEventualSync selects the async runtime under the eventual-sync model.
func (sb *ScalingBuilder) AsyncEventualSync(rho float64, gstSlots int) *ScalingBuilder {
	sb.u.Runtime = &RuntimeSpec{Kind: "async", Drift: &DriftSpec{Model: "eventual-sync", Rho: rho, GST: gstSlots}}
	return sb
}

// AsyncAdversarial selects the async runtime under the adversarial model.
func (sb *ScalingBuilder) AsyncAdversarial(rho float64) *ScalingBuilder {
	sb.u.Runtime = &RuntimeSpec{Kind: "async", Drift: &DriftSpec{Model: "adversarial", Rho: rho}}
	return sb
}

// Metrics selects the reported metrics (must include "rounds").
func (sb *ScalingBuilder) Metrics(names ...string) *ScalingBuilder {
	sb.u.Metrics = names
	return sb
}

// ClaimNotes appends verbatim table notes.
func (sb *ScalingBuilder) ClaimNotes(notes ...string) *ScalingBuilder {
	sb.u.ClaimNotes = append(sb.u.ClaimNotes, notes...)
	return sb
}

// PolylogFit appends the T ≈ c·ln^k n fit note over the per-size means.
func (sb *ScalingBuilder) PolylogFit() *ScalingBuilder {
	sb.u.PolylogNote = true
	return sb
}

// MaxFit appends the per-size-maxima fit note (one %.2f-style verb).
func (sb *ScalingBuilder) MaxFit(noteFormat string) *ScalingBuilder {
	sb.u.MaxFitNote = noteFormat
	return sb
}

// Tail adds the geometric-tail table over the largest ladder size.
func (sb *ScalingBuilder) Tail(title string, kMax int) *ScalingBuilder {
	sb.u.Tail = &TailSpec{Title: title, KMax: kMax}
	return sb
}

// DaemonMatrix appends a daemon-matrix unit and returns its sub-builder.
// The title may use the {n} and {trials} placeholders.
func (b *Builder) DaemonMatrix(title string) *DaemonMatrixBuilder {
	u := &DaemonMatrixUnit{Type: "daemon-matrix", Title: title}
	b.s.Units = append(b.s.Units, Unit{DaemonMatrix: u})
	return &DaemonMatrixBuilder{u: u}
}

// DaemonMatrixBuilder configures one daemon-matrix unit.
type DaemonMatrixBuilder struct {
	u *DaemonMatrixUnit
}

// Processes selects the parallel randomized processes to schedule.
func (db *DaemonMatrixBuilder) Processes(kinds ...string) *DaemonMatrixBuilder {
	db.u.Processes = kinds
	return db
}

// Graph selects the graph family and binds its parameters.
func (db *DaemonMatrixBuilder) Graph(family string, params Params) *DaemonMatrixBuilder {
	db.u.Graph = GraphSpec{Family: family, Params: params}
	return db
}

// N sets the scale-dependent problem size.
func (db *DaemonMatrixBuilder) N(base, min int) *DaemonMatrixBuilder {
	db.u.N = SizeSpec{Base: base, Min: min}
	return db
}

// Trials sets the scale-1 per-row trial count.
func (db *DaemonMatrixBuilder) Trials(t int) *DaemonMatrixBuilder { db.u.Trials = t; return db }

// Daemons restricts the daemon schedules (default: every registered daemon).
func (db *DaemonMatrixBuilder) Daemons(names ...string) *DaemonMatrixBuilder {
	db.u.Daemons = names
	return db
}

// SeedOffset shifts the parallel rows' master seed.
func (db *DaemonMatrixBuilder) SeedOffset(o uint64) *DaemonMatrixBuilder {
	db.u.SeedOffset = o
	return db
}

// Sequential adds the sequential [28, 20]/[28, 31] baseline rows with their
// own seed offset.
func (db *DaemonMatrixBuilder) Sequential(seqSeedOffset uint64) *DaemonMatrixBuilder {
	db.u.Sequential = true
	db.u.SeqSeedOffset = seqSeedOffset
	return db
}

// Fault appends a fault unit and returns its sub-builder. The title may use
// the {n} and {k} placeholders.
func (b *Builder) Fault(title string) *FaultBuilder {
	u := &FaultUnit{Type: "fault", Title: title}
	b.s.Units = append(b.s.Units, Unit{Fault: u})
	return &FaultBuilder{u: u}
}

// FaultBuilder configures one fault unit.
type FaultBuilder struct {
	u *FaultUnit
}

// Processes selects the processes to attack.
func (fb *FaultBuilder) Processes(kinds ...string) *FaultBuilder {
	fb.u.Processes = kinds
	return fb
}

// Graph selects the graph family and binds its parameters.
func (fb *FaultBuilder) Graph(family string, params Params) *FaultBuilder {
	fb.u.Graph = GraphSpec{Family: family, Params: params}
	return fb
}

// N sets the scale-dependent problem size.
func (fb *FaultBuilder) N(base, min int) *FaultBuilder {
	fb.u.N = SizeSpec{Base: base, Min: min}
	return fb
}

// CorruptFraction sizes the attack: k = max(1, fraction·n).
func (fb *FaultBuilder) CorruptFraction(f float64) *FaultBuilder {
	fb.u.CorruptFraction = f
	return fb
}

// Trials sets the scale-1 per-row trial count.
func (fb *FaultBuilder) Trials(t int) *FaultBuilder { fb.u.Trials = t; return fb }

// Adversaries restricts the corruption adversaries (default: all).
func (fb *FaultBuilder) Adversaries(names ...string) *FaultBuilder {
	fb.u.Adversaries = names
	return fb
}

// SeedOffset shifts the cell master seeds.
func (fb *FaultBuilder) SeedOffset(o uint64) *FaultBuilder { fb.u.SeedOffset = o; return fb }
