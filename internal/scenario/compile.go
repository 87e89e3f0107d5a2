package scenario

// Compilation: a validated scenario becomes an experiment.Experiment whose
// Run submits the exact cell structure the hand-coded experiments submit —
// ScalingSpec/RunScalingSweep for sync scaling units, RuntimeScalingSpec
// for the alternative media, DaemonMatrixSpec and FaultMatrixSpec for the
// matrices. Checkpointing, cell timing and -workers independence all come
// for free from that shared path.

import (
	"fmt"
	"strings"

	"ssmis/internal/async"
	"ssmis/internal/experiment"
)

// Compile validates the scenario and binds it to a runnable experiment.
// The experiment's ID is the scenario name, so -out CSV filenames and
// checkpoint journal keys look exactly like a registry experiment's.
func (s *Scenario) Compile() (experiment.Experiment, error) {
	if err := s.Validate(); err != nil {
		return experiment.Experiment{}, err
	}
	runners := make([]func(cfg experiment.Config) []experiment.Table, len(s.Units))
	for i, u := range s.Units {
		runners[i] = compileUnit(s.Name, u)
	}
	title := s.Title
	if title == "" {
		title = "scenario " + s.Name
	}
	claim := s.Claim
	if claim == "" {
		claim = fmt.Sprintf("declarative scenario (%d units)", len(s.Units))
	}
	return experiment.Experiment{
		ID:    s.Name,
		Title: title,
		Claim: claim,
		Run: func(cfg experiment.Config) []experiment.Table {
			var tables []experiment.Table
			for _, run := range runners {
				tables = append(tables, run(cfg)...)
			}
			return tables
		},
	}, nil
}

// compileUnit binds one validated unit to its runner.
func compileUnit(name string, u Unit) func(cfg experiment.Config) []experiment.Table {
	switch {
	case u.Scaling != nil:
		return compileScaling(name, u.Scaling)
	case u.DaemonMatrix != nil:
		spec := daemonMatrixSpec(name, u.DaemonMatrix)
		return func(cfg experiment.Config) []experiment.Table {
			return []experiment.Table{experiment.RunDaemonMatrix(cfg, spec)}
		}
	default:
		spec := faultMatrixSpec(name, u.Fault)
		return func(cfg experiment.Config) []experiment.Table {
			return []experiment.Table{experiment.RunFaultMatrix(cfg, spec)}
		}
	}
}

// mustBind resolves a validated graph spec; Validate already rejected every
// bind error, so a failure here is a harness bug.
func mustBind(g GraphSpec) (experiment.GraphFamily, map[string]float64) {
	f, ok := FamilyByName(g.Family)
	if !ok {
		panic(fmt.Sprintf("scenario: compile of unvalidated family %q", g.Family))
	}
	fam, resolved, err := f.Bind(g.Params)
	if err != nil {
		panic(fmt.Sprintf("scenario: compile of unvalidated params: %v", err))
	}
	return fam, resolved
}

func mustKind(name string) experiment.Kind {
	k, err := experiment.ParseKind(name)
	if err != nil {
		panic(fmt.Sprintf("scenario: compile of unvalidated process: %v", err))
	}
	return k
}

func compileScaling(name string, u *ScalingUnit) func(cfg experiment.Config) []experiment.Table {
	kind := mustKind(u.Process)
	fam, _ := mustBind(u.Graph)
	rt := experiment.RuntimeSync
	if u.Runtime != nil {
		rt, _ = RuntimeByName(u.Runtime.Kind)
	}
	localTimes := false
	for _, m := range u.Metrics {
		if m == "local-times" {
			localTimes = true
		}
	}
	var runRounds func(cfg experiment.Config) []experiment.Table
	if rt == experiment.RuntimeSync {
		spec := experiment.ScalingSpec{
			Title:       u.Title,
			Kind:        kind,
			Family:      fam,
			Sizes:       u.Sizes,
			TrialsBase:  u.Trials,
			RoundCap:    u.RoundCap,
			SeedOffset:  u.SeedOffset,
			ClaimNotes:  u.ClaimNotes,
			PolylogNote: u.PolylogNote,
			MaxFitNote:  u.MaxFitNote,
		}
		if u.Tail != nil {
			spec.Tail = &experiment.TailSpec{Title: u.Tail.Title, KMax: u.Tail.KMax}
		}
		runRounds = func(cfg experiment.Config) []experiment.Table {
			return experiment.RunScalingSweep(cfg, spec)
		}
	} else {
		spec := experiment.RuntimeScalingSpec{
			Title:       u.Title,
			Runtime:     rt,
			Drift:       driftModel(u.Runtime.Drift),
			Kind:        kind,
			Family:      fam,
			Sizes:       u.Sizes,
			TrialsBase:  u.Trials,
			RoundCap:    u.RoundCap,
			SeedOffset:  u.SeedOffset,
			ClaimNotes:  u.ClaimNotes,
			PolylogNote: u.PolylogNote,
		}
		runRounds = func(cfg experiment.Config) []experiment.Table {
			return []experiment.Table{experiment.RunRuntimeScaling(cfg, spec)}
		}
	}
	if !localTimes {
		return runRounds
	}
	ltSpec := experiment.LocalTimesSpec{
		Title:      u.Title + " — per-vertex stabilization times",
		Label:      name,
		Kind:       kind,
		Family:     fam,
		Sizes:      u.Sizes,
		TrialsBase: u.Trials,
		SeedOffset: u.SeedOffset,
	}
	return func(cfg experiment.Config) []experiment.Table {
		tables := runRounds(cfg)
		return append(tables, experiment.RunLocalTimes(cfg, ltSpec))
	}
}

// driftModel constructs the validated drift model (async runtime only).
func driftModel(d *DriftSpec) async.Drift {
	if d == nil {
		return nil
	}
	switch d.Model {
	case "bounded":
		return async.NewBounded(d.Rho)
	case "eventual-sync":
		return async.NewEventualSync(d.Rho, d.GST)
	case "adversarial":
		return async.NewAdversarial(d.Rho)
	default:
		panic(fmt.Sprintf("scenario: compile of unvalidated drift model %q", d.Model))
	}
}

func daemonMatrixSpec(name string, u *DaemonMatrixUnit) experiment.DaemonMatrixSpec {
	fam, _ := mustBind(u.Graph)
	kinds := make([]experiment.Kind, len(u.Processes))
	for i, p := range u.Processes {
		kinds[i] = mustKind(p)
	}
	return experiment.DaemonMatrixSpec{
		TitleFormat:    titleFormat(u.Title, "n", "trials"),
		Label:          name,
		Family:         fam,
		N:              experiment.ScaledSize{Base: u.N.Base, Min: u.N.Min},
		TrialsBase:     u.Trials,
		Kinds:          kinds,
		KindSeedOffset: u.SeedOffset,
		Sequential:     u.Sequential,
		SeqSeedOffset:  u.SeqSeedOffset,
		Daemons:        u.Daemons,
		Notes:          u.Notes,
	}
}

func faultMatrixSpec(name string, u *FaultUnit) experiment.FaultMatrixSpec {
	fam, _ := mustBind(u.Graph)
	kinds := make([]experiment.Kind, len(u.Processes))
	for i, p := range u.Processes {
		kinds[i] = mustKind(p)
	}
	return experiment.FaultMatrixSpec{
		TitleFormat:     titleFormat(u.Title, "n", "k"),
		Label:           name,
		Kinds:           kinds,
		Family:          fam,
		N:               experiment.ScaledSize{Base: u.N.Base, Min: u.N.Min},
		CorruptFraction: u.CorruptFraction,
		TrialsBase:      u.Trials,
		Adversaries:     u.Adversaries,
		SeedOffset:      u.SeedOffset,
		Notes:           u.Notes,
	}
}

// titleFormat converts a {placeholder} title into the fmt string the matrix
// runners expect. Indexed verbs keep the substitution order-independent:
// the i-th placeholder always receives the runner's i-th argument, wherever
// (and however often) it appears in the title; literal percent signs are
// escaped first.
func titleFormat(title string, placeholders ...string) string {
	s := strings.ReplaceAll(title, "%", "%%")
	for i, ph := range placeholders {
		s = strings.ReplaceAll(s, "{"+ph+"}", fmt.Sprintf("%%[%d]d", i+1))
	}
	return s
}

// Plan renders one deterministic line per unit describing the compiled cell
// structure — resolved graph parameters (defaults filled in), runtimes,
// daemon and adversary selections. The fuzzer pins encode→decode→Plan
// equality with it, and missweep prints it nowhere: it is a semantic
// fingerprint, not a display format.
func (s *Scenario) Plan() ([]string, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	lines := make([]string, len(s.Units))
	for i, u := range s.Units {
		switch {
		case u.Scaling != nil:
			lines[i] = planScaling(u.Scaling)
		case u.DaemonMatrix != nil:
			lines[i] = planDaemonMatrix(u.DaemonMatrix)
		default:
			lines[i] = planFault(u.Fault)
		}
	}
	return lines, nil
}

func planGraph(g GraphSpec) string {
	_, resolved := mustBind(g)
	return g.Family + paramString(resolved)
}

func planScaling(u *ScalingUnit) string {
	rt := "sync"
	if u.Runtime != nil {
		rt = u.Runtime.Kind
		if d := u.Runtime.Drift; d != nil {
			rt += fmt.Sprintf("/%s(rho=%v,gst=%d)", d.Model, d.Rho, d.GST)
		}
	}
	metrics := u.Metrics
	if len(metrics) == 0 {
		metrics = []string{"rounds"}
	}
	tail := ""
	if u.Tail != nil {
		tail = fmt.Sprintf(" tail(kmax=%d)", u.Tail.KMax)
	}
	return fmt.Sprintf("scaling %q process=%s graph=%s sizes=%v trials=%d round-cap=%d seed-offset=%d runtime=%s metrics=%s%s",
		u.Title, u.Process, planGraph(u.Graph), u.Sizes, u.Trials, u.RoundCap, u.SeedOffset, rt,
		strings.Join(metrics, "+"), tail)
}

func planDaemonMatrix(u *DaemonMatrixUnit) string {
	daemons := "all"
	if len(u.Daemons) > 0 {
		daemons = strings.Join(u.Daemons, "+")
	}
	return fmt.Sprintf("daemon-matrix %q processes=%s graph=%s n=%d/%d trials=%d daemons=%s sequential=%v seed-offset=%d seq-seed-offset=%d",
		u.Title, strings.Join(u.Processes, "+"), planGraph(u.Graph), u.N.Base, u.N.Min, u.Trials,
		daemons, u.Sequential, u.SeedOffset, u.SeqSeedOffset)
}

func planFault(u *FaultUnit) string {
	advs := "all"
	if len(u.Adversaries) > 0 {
		advs = strings.Join(u.Adversaries, "+")
	}
	return fmt.Sprintf("fault %q processes=%s graph=%s n=%d/%d corrupt-fraction=%v trials=%d adversaries=%s seed-offset=%d",
		u.Title, strings.Join(u.Processes, "+"), planGraph(u.Graph), u.N.Base, u.N.Min,
		u.CorruptFraction, u.Trials, advs, u.SeedOffset)
}
