package experiment

// The fault-matrix sweep shape: a stabilized process is attacked by each
// state-corruption adversary (internal/fault) and the rounds to re-stabilize
// are measured, one row per (process, adversary) pair. This is the core of
// E11b extracted as a declarative spec so scenario "fault" units run the
// same corruption/recovery cells the hand-coded experiment does.

import (
	"fmt"
	"strings"

	"ssmis/internal/engine"
	"ssmis/internal/fault"
	"ssmis/internal/mis"
	"ssmis/internal/stats"
	"ssmis/internal/verify"
	"ssmis/internal/xrand"
)

// FaultAdversaryNames lists the corruption adversaries by canonical name,
// in presentation order.
func FaultAdversaryNames() []string {
	names := make([]string, 0, len(fault.AllAdversaries()))
	for _, a := range fault.AllAdversaries() {
		names = append(names, a.String())
	}
	return names
}

// FaultAdversaryByName resolves a canonical adversary name.
func FaultAdversaryByName(name string) (fault.Adversary, error) {
	for _, a := range fault.AllAdversaries() {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("experiment: unknown fault adversary %q (valid: %s)",
		name, strings.Join(FaultAdversaryNames(), ", "))
}

// FaultMatrixSpec declares one corruption/recovery matrix table.
type FaultMatrixSpec struct {
	// TitleFormat renders the table title; it receives the resolved vertex
	// count and the corruption size k (two %d-style verbs in that order).
	TitleFormat string
	// Label prefixes the scheduler cell labels.
	Label string
	// Kinds lists the processes to attack.
	Kinds []Kind
	// Family generates the (per-seed) graphs at order N.At(scale).
	Family GraphFamily
	// N is the scale-dependent problem size.
	N ScaledSize
	// CorruptFraction sizes the attack: k = max(1, CorruptFraction·n).
	CorruptFraction float64
	// TrialsBase is the per-row trial count at scale 1.
	TrialsBase int
	// Adversaries lists the corruption adversaries by name; nil selects all.
	Adversaries []string
	// SeedOffset shifts the cell master seeds (cfg.Seed + SeedOffset).
	SeedOffset uint64
	// Notes are appended to the table verbatim.
	Notes []string
}

// RunFaultMatrix executes the spec against the configuration's shared pool
// and renders the matrix table. Each trial stabilizes a fresh run, injects
// the corruption, and measures the rounds until the process re-stabilizes
// to a verified MIS (E11b's cell, with the fresh run's round budget 8x the
// simulator default to absorb adversarial initializations).
func RunFaultMatrix(cfg Config, spec FaultMatrixSpec) Table {
	cfg = cfg.normalized()
	trials := cfg.trials(spec.TrialsBase)
	n := spec.N.At(cfg.Scale)
	k := int(spec.CorruptFraction * float64(n))
	if k < 1 {
		k = 1
	}
	advNames := spec.Adversaries
	if advNames == nil {
		advNames = FaultAdversaryNames()
	}
	t := Table{
		Title:   fmt.Sprintf(spec.TitleFormat, n, k),
		Columns: []string{"process", "adversary", "recovery mean", "recovery max", "recovered"},
	}
	type recOutcome struct {
		rounds float64
		ok     bool
	}
	for _, kind := range spec.Kinds {
		for _, advName := range advNames {
			adv, err := FaultAdversaryByName(advName)
			if err != nil {
				panic(err)
			}
			recRounds := stats.NewStream()
			failed := 0
			RunJobs(cfg, fmt.Sprintf("%s %v/%v", spec.Label, kind, adv), trials, cfg.Seed+spec.SeedOffset,
				func(rc *engine.RunContext, trial int, seed uint64) any {
					g := spec.Family.Build(n, seed)
					p := NewProcess(kind, g, mis.WithRunContext(rc), mis.WithSeed(seed))
					if !mis.Run(p, 8*mis.DefaultRoundCap(g.N())).Stabilized {
						return recOutcome{}
					}
					c := fault.Wrap(p)
					attackRng := xrand.New(cfg.Seed + spec.SeedOffset).Split(uint64(9000 + trial))
					res := fault.Attack(c, adv, k, attackRng, 8*mis.DefaultRoundCap(g.N()))
					if !res.Recovered || verify.MIS(g, c.Black) != nil {
						return recOutcome{}
					}
					return recOutcome{rounds: float64(res.RecoveryRounds), ok: true}
				},
				func(_ int, payload any) {
					o := payload.(recOutcome)
					if !o.ok {
						failed++
						return
					}
					recRounds.Add(o.rounds)
				})
			if recRounds.N() == 0 {
				t.AddRow(kind.String(), advName, "-", "-", fmt.Sprintf("0/%d FAILED", trials))
				continue
			}
			t.AddRow(kind.String(), advName, recRounds.Mean(), recRounds.Max(),
				fmt.Sprintf("%d/%d", trials-failed, trials))
		}
	}
	t.Notes = append(t.Notes, spec.Notes...)
	return t
}
