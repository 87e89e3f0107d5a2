// Package scenario is the declarative layer over the experiment harness: a
// scenario names its axes — graph family, process kind, runtime, daemon
// schedule, fault adversary, metrics — out of closed registries, validates
// every cross-axis constraint loudly, and compiles to the same spec-driven
// runners (internal/experiment's ScalingSpec, DaemonMatrixSpec,
// FaultMatrixSpec, ...) the hand-coded E1–E19 run on. A compiled scenario
// is an experiment.Experiment: it submits its cells to the shared batch
// pool, journals into sweep checkpoints, logs cell timings, and renders the
// same tables — a scenario reproducing E1's, E4's or E18's spec renders
// byte-identical output, pinned by the golden tests in this package and the
// CI scenario-vs-experiment sweep smoke.
//
// Scenarios arrive three ways: the fluent Builder (Go callers), the
// versioned JSON codec (missweep -scenario file.json), or literal struct
// values. All three funnel through Validate, which rejects invalid
// documents with a ValidationError listing EVERY issue — unknown names
// always include the valid vocabulary, and impossible axis combinations
// (drift without the async runtime, a daemon schedule for the 3-color
// process, a beeping run of a stone-age rule) name the constraint they
// break.
package scenario

import (
	"fmt"
	"regexp"
	"strings"

	"ssmis/internal/async"
	"ssmis/internal/experiment"
	"ssmis/internal/sched"
)

// Scenario is one declarative document: a named list of units compiled into
// one experiment.Experiment (the units' tables concatenate in order).
type Scenario struct {
	// Name identifies the compiled experiment (its ID: table headers,
	// checkpoint journals, -out CSV filenames). Restricted to
	// [A-Za-z0-9._-] so the derived filenames stay sane.
	Name string `json:"name"`
	// Title is the experiment's one-line description; defaults to the name.
	Title string `json:"title,omitempty"`
	// Claim is the experiment's claim line; defaults to a stock phrase.
	Claim string `json:"claim,omitempty"`
	// Units are the measurement units, each rendering one or more tables.
	Units []Unit `json:"units"`
}

// Unit is a tagged union of the unit types; exactly one member is non-nil.
type Unit struct {
	Scaling      *ScalingUnit
	DaemonMatrix *DaemonMatrixUnit
	Fault        *FaultUnit
}

// UnitTypeNames lists the unit type tags.
func UnitTypeNames() []string { return []string{"scaling", "daemon-matrix", "fault"} }

// GraphSpec names a registered graph family with its parameter bindings.
type GraphSpec struct {
	Family string             `json:"family"`
	Params map[string]float64 `json:"params,omitempty"`
}

// RuntimeSpec names the execution medium of a scaling unit. Kind "sync"
// (the default when the runtime is omitted) is the array simulator;
// "beeping" and "stone-age" are the lockstep node-program media; "async" is
// the drifting-clock medium and requires a Drift model.
type RuntimeSpec struct {
	Kind  string     `json:"kind"`
	Drift *DriftSpec `json:"drift,omitempty"`
}

// DriftSpec names a clock-drift model for the async runtime.
type DriftSpec struct {
	// Model is "bounded", "eventual-sync" or "adversarial".
	Model string `json:"model"`
	// Rho is the drift bound, in [1, async.MaxRho].
	Rho float64 `json:"rho"`
	// GST is the global stabilization time in slots; eventual-sync only.
	GST int `json:"gst,omitempty"`
}

// SizeSpec is the scale-dependent problem size of fixed-n units:
// n = Base·min(2·scale, 1), clamped below at Min.
type SizeSpec struct {
	Base int `json:"base"`
	Min  int `json:"min,omitempty"`
}

// TailSpec requests a geometric-tail table over the largest ladder size.
type TailSpec struct {
	Title string `json:"title"`
	KMax  int    `json:"kmax"`
}

// ScalingUnit declares one stabilization-time scaling table: a process
// swept over a size ladder of one graph family on one runtime.
type ScalingUnit struct {
	Type    string    `json:"type"`
	Title   string    `json:"title"`
	Process string    `json:"process"`
	Graph   GraphSpec `json:"graph"`
	Sizes   []int     `json:"sizes"`
	Trials  int       `json:"trials"`
	// RoundCap bounds each run; 0 uses the runtime's default cap.
	RoundCap int `json:"round-cap,omitempty"`
	// SeedOffset shifts the cell master seeds (cfg.Seed + SeedOffset + n).
	SeedOffset uint64 `json:"seed-offset,omitempty"`
	// Runtime selects the medium; nil means sync.
	Runtime *RuntimeSpec `json:"runtime,omitempty"`
	// Metrics selects the reported metrics; empty means ["rounds"]. The
	// list must include "rounds"; "local-times" (sync runtime only) adds
	// the per-vertex coverage-stamp table.
	Metrics     []string `json:"metrics,omitempty"`
	ClaimNotes  []string `json:"claim-notes,omitempty"`
	PolylogNote bool     `json:"polylog-note,omitempty"`
	// MaxFitNote formats the fitted ln-exponent of per-size maxima (one
	// %.2f-style verb); sync runtime only.
	MaxFitNote string `json:"max-fit-note,omitempty"`
	// Tail adds the geometric-tail table; sync runtime only.
	Tail *TailSpec `json:"tail,omitempty"`
}

// DaemonMatrixUnit declares one daemon-schedule matrix: randomized parallel
// processes (and optionally the sequential [28, 20] baseline) under a set
// of daemon schedules. Daemon scheduling is defined on the synchronous
// shared-memory model only — the unit has no runtime axis by construction.
type DaemonMatrixUnit struct {
	Type string `json:"type"`
	// Title may use the placeholders {n} and {trials}.
	Title     string    `json:"title"`
	Processes []string  `json:"processes"`
	Graph     GraphSpec `json:"graph"`
	N         SizeSpec  `json:"n"`
	Trials    int       `json:"trials"`
	// Daemons lists sched.DaemonByName names; empty selects every
	// registered daemon.
	Daemons []string `json:"daemons,omitempty"`
	// Sequential adds the sequential deterministic/randomized baseline rows.
	Sequential    bool     `json:"sequential,omitempty"`
	SeedOffset    uint64   `json:"seed-offset,omitempty"`
	SeqSeedOffset uint64   `json:"seq-seed-offset,omitempty"`
	Notes         []string `json:"notes,omitempty"`
}

// FaultUnit declares one corruption/recovery matrix: stabilized processes
// attacked by state-corruption adversaries, measuring re-stabilization.
// Fault injection mutates simulator state directly, so the unit runs on the
// synchronous simulator only.
type FaultUnit struct {
	Type string `json:"type"`
	// Title may use the placeholders {n} and {k}.
	Title     string    `json:"title"`
	Processes []string  `json:"processes"`
	Graph     GraphSpec `json:"graph"`
	N         SizeSpec  `json:"n"`
	// CorruptFraction sizes the attack: k = max(1, fraction·n); in (0, 1].
	CorruptFraction float64 `json:"corrupt-fraction"`
	Trials          int     `json:"trials"`
	// Adversaries lists fault adversary names; empty selects all.
	Adversaries []string `json:"adversaries,omitempty"`
	SeedOffset  uint64   `json:"seed-offset,omitempty"`
	Notes       []string `json:"notes,omitempty"`
}

// ValidationError reports every constraint a scenario breaks, one issue per
// line. Callers that want the list programmatically use Issues.
type ValidationError struct {
	Issues []string
}

func (e *ValidationError) Error() string {
	if len(e.Issues) == 1 {
		return "scenario: " + e.Issues[0]
	}
	return fmt.Sprintf("scenario: %d issues:\n  - %s", len(e.Issues), strings.Join(e.Issues, "\n  - "))
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9._-]+$`)

// Validate checks the whole document and returns a *ValidationError listing
// every issue, or nil. Compile and Encode both validate first, so an
// invalid scenario cannot reach the pool or the wire.
func (s *Scenario) Validate() error {
	var issues []string
	addf := func(format string, args ...any) {
		issues = append(issues, fmt.Sprintf(format, args...))
	}
	if s.Name == "" {
		addf("name is required")
	} else if !nameRE.MatchString(s.Name) {
		addf("name %q: must match %s (it names checkpoint journals and CSV files)", s.Name, nameRE)
	}
	if len(s.Units) == 0 {
		addf("at least one unit is required")
	}
	for i, u := range s.Units {
		prefix := fmt.Sprintf("unit %d", i)
		switch {
		case u.Scaling != nil:
			validateScaling(u.Scaling, prefix+" (scaling)", addf)
		case u.DaemonMatrix != nil:
			validateDaemonMatrix(u.DaemonMatrix, prefix+" (daemon-matrix)", addf)
		case u.Fault != nil:
			validateFault(u.Fault, prefix+" (fault)", addf)
		default:
			addf("%s: empty unit (valid types: %s)", prefix, strings.Join(UnitTypeNames(), ", "))
		}
	}
	if len(issues) > 0 {
		return &ValidationError{Issues: issues}
	}
	return nil
}

// validateGraph resolves the family and checks the parameter bindings.
func validateGraph(g GraphSpec, prefix string, addf func(string, ...any)) {
	fam, ok := FamilyByName(g.Family)
	if !ok {
		addf("%s: unknown graph family %q (valid: %s)", prefix, g.Family, strings.Join(FamilyNames(), ", "))
		return
	}
	if _, _, err := fam.Bind(g.Params); err != nil {
		addf("%s: %v", prefix, err)
	}
}

func validateScaling(u *ScalingUnit, prefix string, addf func(string, ...any)) {
	if u.Title == "" {
		addf("%s: title is required", prefix)
	}
	kind, kindErr := experiment.ParseKind(u.Process)
	if kindErr != nil {
		addf("%s: %v", prefix, kindErr)
	}
	validateGraph(u.Graph, prefix, addf)
	if len(u.Sizes) == 0 {
		addf("%s: sizes is required (the size ladder)", prefix)
	}
	for _, n := range u.Sizes {
		if n < 1 {
			addf("%s: size %d: sizes must be >= 1", prefix, n)
		}
	}
	if u.Trials < 1 {
		addf("%s: trials must be >= 1, got %d", prefix, u.Trials)
	}
	if u.RoundCap < 0 {
		addf("%s: round-cap must be >= 0, got %d", prefix, u.RoundCap)
	}

	// The runtime axis and its cross-axis constraints.
	rtName := "sync"
	if u.Runtime != nil {
		rtName = u.Runtime.Kind
	}
	rt, rtOK := RuntimeByName(rtName)
	if !rtOK {
		addf("%s: unknown runtime %q (valid: %s)", prefix, rtName, strings.Join(RuntimeNames(), ", "))
	}
	if rtOK && kindErr == nil && !experiment.RuntimeSupports(rt, kind) {
		addf("%s: the %s runtime cannot execute the %v process (%s)",
			prefix, rtName, kind, runtimeSupportNote(rt))
	}
	if u.Runtime != nil {
		validateDrift(u.Runtime, prefix, addf)
	}
	sync := rtOK && rt == experiment.RuntimeSync
	if u.Tail != nil {
		if u.Tail.Title == "" {
			addf("%s: tail.title is required", prefix)
		}
		if u.Tail.KMax < 1 {
			addf("%s: tail.kmax must be >= 1, got %d", prefix, u.Tail.KMax)
		}
		if !sync {
			addf("%s: tail tables need the sync runtime (round samples come from the simulator sweep), not %q", prefix, rtName)
		}
	}
	if u.MaxFitNote != "" && !sync {
		addf("%s: max-fit-note needs the sync runtime, not %q", prefix, rtName)
	}

	// Metrics.
	if len(u.Metrics) > 0 {
		seen := map[string]bool{}
		hasRounds := false
		for _, m := range u.Metrics {
			if seen[m] {
				addf("%s: duplicate metric %q", prefix, m)
				continue
			}
			seen[m] = true
			switch m {
			case "rounds":
				hasRounds = true
			case "local-times":
				if !sync {
					addf("%s: metric local-times needs the sync runtime (coverage stamps are the simulator's), not %q", prefix, rtName)
				}
			default:
				addf("%s: unknown metric %q for scaling units (valid: rounds, local-times)", prefix, m)
			}
		}
		if !hasRounds {
			addf(`%s: metrics must include "rounds" (the scaling table itself)`, prefix)
		}
	}
}

// validateDrift checks the drift model block against the runtime kind.
func validateDrift(rt *RuntimeSpec, prefix string, addf func(string, ...any)) {
	if rt.Kind != "async" {
		if rt.Drift != nil {
			addf("%s: drift models require the async runtime, not %q", prefix, rt.Kind)
		}
		return
	}
	d := rt.Drift
	if d == nil {
		addf("%s: the async runtime requires a drift model (valid: %s)", prefix, strings.Join(DriftModelNames(), ", "))
		return
	}
	known := false
	for _, m := range DriftModelNames() {
		if d.Model == m {
			known = true
		}
	}
	if !known {
		addf("%s: unknown drift model %q (valid: %s)", prefix, d.Model, strings.Join(DriftModelNames(), ", "))
	}
	if !(d.Rho >= 1 && d.Rho <= async.MaxRho) {
		addf("%s: drift rho %v outside [1, %d]", prefix, d.Rho, int64(async.MaxRho))
	}
	if d.Model == "eventual-sync" {
		if d.GST < 0 {
			addf("%s: eventual-sync gst must be >= 0, got %d", prefix, d.GST)
		}
	} else if d.GST != 0 {
		addf("%s: gst applies to the eventual-sync model only, not %q", prefix, d.Model)
	}
}

func validateSize(n SizeSpec, prefix string, addf func(string, ...any)) {
	if n.Base < 1 {
		addf("%s: n.base must be >= 1, got %d", prefix, n.Base)
	}
	if n.Min < 0 {
		addf("%s: n.min must be >= 0, got %d", prefix, n.Min)
	}
}

func validateDaemonMatrix(u *DaemonMatrixUnit, prefix string, addf func(string, ...any)) {
	if u.Title == "" {
		addf("%s: title is required", prefix)
	}
	if len(u.Processes) == 0 {
		addf("%s: processes is required", prefix)
	}
	for _, p := range u.Processes {
		kind, err := experiment.ParseKind(p)
		if err != nil {
			addf("%s: %v", prefix, err)
			continue
		}
		if kind == experiment.KindThreeColor {
			addf("%s: the 3-color process is not daemon-schedulable (only 2-state and 3-state implement the daemon interface)", prefix)
		}
	}
	validateGraph(u.Graph, prefix, addf)
	validateSize(u.N, prefix, addf)
	if u.Trials < 1 {
		addf("%s: trials must be >= 1, got %d", prefix, u.Trials)
	}
	for _, d := range u.Daemons {
		if _, err := sched.DaemonByName(d); err != nil {
			addf("%s: %v (valid: %s)", prefix, err, strings.Join(sched.DaemonNames(), ", "))
		}
	}
}

func validateFault(u *FaultUnit, prefix string, addf func(string, ...any)) {
	if u.Title == "" {
		addf("%s: title is required", prefix)
	}
	if len(u.Processes) == 0 {
		addf("%s: processes is required", prefix)
	}
	for _, p := range u.Processes {
		if _, err := experiment.ParseKind(p); err != nil {
			addf("%s: %v", prefix, err)
		}
	}
	validateGraph(u.Graph, prefix, addf)
	validateSize(u.N, prefix, addf)
	if !(u.CorruptFraction > 0 && u.CorruptFraction <= 1) {
		addf("%s: corrupt-fraction must be in (0, 1], got %v", prefix, u.CorruptFraction)
	}
	if u.Trials < 1 {
		addf("%s: trials must be >= 1, got %d", prefix, u.Trials)
	}
	for _, a := range u.Adversaries {
		if _, err := experiment.FaultAdversaryByName(a); err != nil {
			addf("%s: %v", prefix, err)
		}
	}
}

// runtimeSupportNote explains a runtime's process constraint.
func runtimeSupportNote(rt experiment.Runtime) string {
	switch rt {
	case experiment.RuntimeBeeping:
		return "the beeping medium carries only the 2-state rule's single channel"
	case experiment.RuntimeStoneAge:
		return "the stone-age medium runs the 3-state and 3-color rules"
	case experiment.RuntimeAsync:
		return "the async medium implements the 2-state and 3-state program sets"
	default:
		return "sync runs every process"
	}
}
