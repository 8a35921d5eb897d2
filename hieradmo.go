// Package hieradmo is a from-scratch Go implementation of HierAdMo —
// "Hierarchical Federated Learning with Adaptive Momentum in Multi-Tier
// Networks" (Yang et al., ICDCS 2023) — together with every substrate the
// paper's evaluation needs: a pure-Go neural-network stack, synthetic
// dataset generators with the paper's non-IID partitioning protocol, nine
// baseline FL algorithms, a trace-driven network/compute timing simulator,
// and an experiment harness that regenerates every table and figure of the
// paper.
//
// This root package is the stable public facade over the internal packages.
// Typical use:
//
//	cfg, err := hieradmo.BuildConfig(hieradmo.Workload{
//		Dataset: "mnist", Model: "cnn", ClassesPerWorker: 3,
//	}, hieradmo.BenchScale())
//	...
//	res, err := hieradmo.New().Run(cfg)
//	fmt.Println(res)
//
// or run a full paper experiment:
//
//	tbl, err := hieradmo.RunExperiment("table2", hieradmo.DefaultScale())
//	fmt.Print(tbl.Render())
package hieradmo

import (
	"fmt"

	"hieradmo/internal/core"
	"hieradmo/internal/experiment"
	"hieradmo/internal/fl"
)

// Core federated-learning types, re-exported from the framework.
type (
	// Config describes one federated training run (topology, model,
	// hyper-parameters, schedule).
	Config = fl.Config
	// Result is the outcome of a run: final accuracy and the recorded
	// accuracy/loss curve.
	Result = fl.Result
	// Point is one curve sample.
	Point = fl.Point
	// Algorithm is any runnable FL procedure.
	Algorithm = fl.Algorithm
)

// Experiment-harness types, re-exported.
type (
	// Scale sets the cost/fidelity trade-off of experiment runs.
	Scale = experiment.Scale
	// Workload selects dataset, model, topology and schedule.
	Workload = experiment.Workload
	// Table is the rendered result of one experiment.
	Table = experiment.Table
)

// Option customizes the HierAdMo algorithm, re-exported from the core
// package.
type Option = core.Option

// New returns the adaptive HierAdMo algorithm (the paper's contribution).
func New(opts ...Option) Algorithm { return core.New(opts...) }

// NewReduced returns HierAdMo-R, the fixed-γℓ variant the paper compares
// against in Theorem 5 and Fig. 2(i)–(k).
func NewReduced(opts ...Option) Algorithm { return core.NewReduced(opts...) }

// WithClampCeiling overrides the γℓ clamp of eq. (7) (default 0.99).
func WithClampCeiling(c float64) Option { return core.WithClampCeiling(c) }

// WithParticipation samples only that fraction of each edge's workers into
// every edge aggregation (cross-device extension; default 1): the run's tree
// takes it as its edges' part=, and a fraction outside (0, 1] fails the run
// at its start.
func WithParticipation(frac float64) Option { return core.WithParticipation(frac) }

// WithUplinkQuantization compresses every worker→edge upload through a
// QSGD-style stochastic quantizer of the given bit width (2–8; 0 disables).
func WithUplinkQuantization(bits int) Option { return core.WithUplinkQuantization(bits) }

// Algorithms returns the paper's full 11-algorithm roster (HierAdMo,
// HierAdMo-R, and the nine baselines) in Table II row order.
func Algorithms() []Algorithm { return experiment.AllAlgorithms() }

// BuildConfig materializes a Workload at a Scale into a runnable Config
// (synthetic dataset generation, hierarchical partitioning, model
// construction, and hyper-parameter defaults from the paper).
func BuildConfig(w Workload, s Scale) (*Config, error) {
	return experiment.BuildConfig(w, s)
}

// BenchScale is the scaled-down experiment preset (seconds per run).
func BenchScale() Scale { return experiment.BenchScale() }

// DefaultScale is the CLI preset (closer to paper budgets).
func DefaultScale() Scale { return experiment.DefaultScale() }

// ExperimentIDs lists every reproducible artifact: "table2", "fig2a" …
// "fig2l", and the ablations.
func ExperimentIDs() []string { return experiment.ExperimentIDs() }

// RunExperiment regenerates one paper table or figure by ID.
func RunExperiment(id string, s Scale) (*Table, error) {
	run, ok := experiment.Registry()[id]
	if !ok {
		return nil, fmt.Errorf("hieradmo: unknown experiment %q (known: %v)",
			id, experiment.ExperimentIDs())
	}
	return run(s)
}
