// Package fl is the federated-learning framework shared by the HierAdMo
// implementation (internal/core) and all baselines (internal/baseline): run
// configuration and the aggregation tree it resolves to, per-leaf gradient
// plumbing, weighted aggregation, and accuracy/loss curve recording.
//
// The framework simulates the distributed execution deterministically in a
// single process: every worker has its own seeded mini-batch stream, and
// algorithms advance all workers in lockstep exactly as the synchronous
// protocols in the paper prescribe. Wall-clock behaviour of the physical
// deployment is modelled separately by internal/netsim.
package fl

import (
	"errors"
	"fmt"
	"strings"

	"hieradmo/internal/dataset"
	"hieradmo/internal/model"
	"hieradmo/internal/telemetry"
	"hieradmo/internal/topology"
)

// Default hyper-parameters mirroring the paper's experimental setup (§V-A).
const (
	DefaultEta       = 0.01
	DefaultGamma     = 0.5
	DefaultGammaEdge = 0.5
	DefaultBatchSize = 64
)

// ErrConfig wraps configuration validation failures.
var ErrConfig = errors.New("fl: invalid config")

// Config describes one federated training run.
type Config struct {
	// Model is the learning model shared by all workers.
	Model model.Model
	// Edges holds the training shard of every worker, grouped per edge node:
	// Edges[l][i] is the dataset of worker {i,l}. Two-tier algorithms flatten
	// this hierarchy and connect every worker directly to the cloud.
	Edges [][]*dataset.Dataset
	// Test is the held-out evaluation set.
	Test *dataset.Dataset

	// Eta is the worker learning rate η.
	Eta float64
	// Gamma is the worker momentum factor γ.
	Gamma float64
	// GammaEdge is the edge (or server) momentum factor γℓ used by
	// fixed-momentum algorithms; HierAdMo adapts it online instead.
	GammaEdge float64

	// Tau is the worker–edge aggregation period τ.
	Tau int
	// Pi is the edge–cloud aggregation period π. Two-tier algorithms use a
	// single aggregation period of Tau*Pi so communication rounds stay
	// comparable, as in the paper's setup.
	Pi int
	// T is the total number of local iterations; must be a multiple of
	// Tau*Pi (T = Kτ = Pτπ).
	T int

	// BatchSize is the worker mini-batch size.
	BatchSize int
	// ClipNorm, when positive, rescales every worker mini-batch gradient
	// whose L2 norm exceeds it (standard stabilization for the deeper
	// models; 0 disables). Applied inside the one gradient step every
	// engine shares (GradOracle.Grad), so every algorithm — and the cluster
	// runtime's leaves — sees the same clipped gradients.
	ClipNorm float64
	// Seed drives every random choice (init, batch order, evaluation).
	Seed uint64

	// Workers bounds the goroutine pool used for the per-round parallel
	// local-training phase (0 = runtime.GOMAXPROCS(0)). Results are
	// bit-identical at every pool size: only wall-clock changes. 1 forces
	// fully sequential execution.
	Workers int

	// EvalEvery records a curve point every EvalEvery iterations (plus one
	// final point). Zero disables intermediate evaluation. Both engines
	// obey it (Harness.ShouldEval); the cluster root sees the model only at
	// its syncs, so it records the multiples of EvalEvery that are also
	// multiples of its period.
	EvalEvery int
	// EvalSamples caps how many test samples each curve evaluation uses
	// (0 = full test set). Curve shape is what matters; capping keeps large
	// sweeps fast.
	EvalSamples int

	// CheckpointDir, when non-empty, enables crash recovery: the run
	// periodically snapshots its complete state (model, momentum, RNG
	// positions, round counter) there and resumes bit-exactly from the
	// newest valid snapshot on the next start.
	CheckpointDir string
	// CheckpointEvery is the snapshot period in local iterations. Zero with
	// CheckpointDir set defaults to Tau (one snapshot per edge round).
	CheckpointEvery int

	// Telemetry, when non-nil, receives metrics and trace events from the
	// run (see internal/telemetry). Nil disables observability at zero
	// cost; results are bit-identical either way, so Telemetry is — like
	// Workers — deliberately excluded from Fingerprint.
	Telemetry *telemetry.Sink
}

// Validate checks the configuration for structural errors.
func (c *Config) Validate() error {
	switch {
	case c.Model == nil:
		return fmt.Errorf("%w: nil model", ErrConfig)
	case len(c.Edges) == 0:
		return fmt.Errorf("%w: no edges", ErrConfig)
	case c.Test == nil || c.Test.Len() == 0:
		return fmt.Errorf("%w: empty test set", ErrConfig)
	case c.Eta <= 0:
		return fmt.Errorf("%w: eta %v must be positive", ErrConfig, c.Eta)
	case c.Gamma < 0 || c.Gamma >= 1:
		return fmt.Errorf("%w: gamma %v outside [0,1)", ErrConfig, c.Gamma)
	case c.GammaEdge < 0 || c.GammaEdge >= 1:
		return fmt.Errorf("%w: gammaEdge %v outside [0,1)", ErrConfig, c.GammaEdge)
	case c.Tau <= 0 || c.Pi <= 0:
		return fmt.Errorf("%w: tau %d and pi %d must be positive", ErrConfig, c.Tau, c.Pi)
	case c.T <= 0:
		return fmt.Errorf("%w: T %d must be positive", ErrConfig, c.T)
	case c.T%(c.Tau*c.Pi) != 0:
		return fmt.Errorf("%w: T=%d is not a multiple of tau*pi=%d", ErrConfig, c.T, c.Tau*c.Pi)
	case c.BatchSize <= 0:
		return fmt.Errorf("%w: batch size %d must be positive", ErrConfig, c.BatchSize)
	case c.ClipNorm < 0:
		return fmt.Errorf("%w: negative clip norm %v", ErrConfig, c.ClipNorm)
	case c.Workers < 0:
		return fmt.Errorf("%w: negative worker pool size %d", ErrConfig, c.Workers)
	case c.EvalEvery < 0 || c.EvalSamples < 0:
		return fmt.Errorf("%w: negative eval settings", ErrConfig)
	case c.CheckpointEvery < 0:
		return fmt.Errorf("%w: negative checkpoint period %d", ErrConfig, c.CheckpointEvery)
	case c.CheckpointEvery > 0 && c.CheckpointDir == "":
		return fmt.Errorf("%w: checkpoint period %d without a checkpoint directory", ErrConfig, c.CheckpointEvery)
	}
	for l, edge := range c.Edges {
		if len(edge) == 0 {
			return fmt.Errorf("%w: edge %d has no workers", ErrConfig, l)
		}
		for i, shard := range edge {
			if shard == nil || shard.Len() == 0 {
				return fmt.Errorf("%w: worker {%d,%d} has no data", ErrConfig, i, l)
			}
		}
	}
	return nil
}

// Fingerprint summarizes everything that determines the trajectory of a run
// of the named algorithm: model identity and dimension, data topology and
// shard sizes, every hyper-parameter, and the seed. A checkpoint written
// under one fingerprint refuses to resume under a different one. The worker
// pool size is deliberately excluded — results are bit-identical at every
// pool size, so a run may legitimately resume with a different pool.
func (c *Config) Fingerprint(algorithm string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "alg=%s model=%s dim=%d", algorithm, c.Model.Name(), c.Model.Dim())
	fmt.Fprintf(&b, " edges=")
	for l, edge := range c.Edges {
		if l > 0 {
			b.WriteByte('|')
		}
		for i, shard := range edge {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", shard.Len())
		}
	}
	fmt.Fprintf(&b, " test=%d", c.Test.Len())
	fmt.Fprintf(&b, " eta=%g gamma=%g gammaEdge=%g tau=%d pi=%d T=%d",
		c.Eta, c.Gamma, c.GammaEdge, c.Tau, c.Pi, c.T)
	fmt.Fprintf(&b, " batch=%d clip=%g seed=%d evalEvery=%d evalSamples=%d",
		c.BatchSize, c.ClipNorm, c.Seed, c.EvalEvery, c.EvalSamples)
	return b.String()
}

// Tree resolves the run's aggregation tree over the shards in leaf order
// (Shards): topo's, or — when topo is nil — the cloud / edge / worker tree
// Edges describes. A spec's part= draws its participant sample here, from
// the run's seed over its T iterations (topology.Tree.WithParticipation).
// It is the one tree both execution engines run for the pair; NewHarness
// holds it to the horizon T.
func (c *Config) Tree(topo *topology.Topology) (*topology.Tree, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	shards := c.Shards()
	n := len(shards)
	// The leaves' sample counts and the edges' worker counts share a block.
	counts := make([]int, n, n+len(c.Edges))
	for j, shard := range shards {
		counts[j] = shard.Len()
	}
	sizes := counts[:n:n]
	var tree *topology.Tree
	var err error
	if topo == nil {
		for _, edge := range c.Edges {
			counts = append(counts, len(edge))
		}
		tree, err = topology.Derive(c.Tau, c.Pi, counts[n:], sizes)
	} else if tree, err = topo.Resolve(sizes); err == nil {
		if part := tree.Levels[tree.LeafParent()].Part; part != 0 {
			tree, err = tree.WithParticipation(part, c.Seed, c.T)
		}
	}
	if err != nil {
		// A tree that does not fit the config is the config's fault, as
		// NewHarness reports a tree from another config.
		return nil, fmt.Errorf("%w: %w", ErrConfig, err)
	}
	return tree, nil
}

// Shards returns the workers' shards in leaf order, Edges flattened edge by
// edge: leaf j of every tree resolved from the config trains on Shards()[j].
// It is the one place leaf order is decided.
func (c *Config) Shards() []*dataset.Dataset {
	shards := make([]*dataset.Dataset, 0, c.NumWorkers())
	for _, edge := range c.Edges {
		shards = append(shards, edge...)
	}
	return shards
}

// NumEdges returns L.
func (c *Config) NumEdges() int { return len(c.Edges) }

// NumWorkers returns N = Σ Cℓ.
func (c *Config) NumWorkers() int {
	n := 0
	for _, e := range c.Edges {
		n += len(e)
	}
	return n
}

// Algorithm is a federated-learning procedure that can execute a Config.
type Algorithm interface {
	// Name is the report name (matches the paper's tables).
	Name() string
	// Run executes the configured training and returns the result.
	Run(cfg *Config) (*Result, error)
}
