package ssmis

import (
	"ssmis/internal/experiment"
)

// Experiment binds one of the paper's quantitative claims to a runnable
// reproduction; `missweep -list` prints the index E1–E19.
type Experiment = experiment.Experiment

// ExperimentConfig controls an experiment's cost (Scale ∈ (0, 4], Seed).
type ExperimentConfig = experiment.Config

// ExperimentTable is a rendered experiment result.
type ExperimentTable = experiment.Table

// Experiments returns all registered experiments in ID order (E1–E19).
func Experiments() []Experiment { return experiment.Registry() }

// ExperimentByID looks up an experiment ("E1".."E19", case-insensitive).
func ExperimentByID(id string) (Experiment, bool) { return experiment.ByID(id) }

// FullExperimentConfig is the full-scale configuration, the one
// `missweep -run all` uses by default.
func FullExperimentConfig() ExperimentConfig { return experiment.DefaultConfig() }

// QuickExperimentConfig is the reduced configuration used by benchmarks.
func QuickExperimentConfig() ExperimentConfig { return experiment.QuickConfig() }
