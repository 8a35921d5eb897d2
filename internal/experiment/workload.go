package experiment

import (
	"fmt"

	"hieradmo/internal/baseline"
	"hieradmo/internal/core"
	"hieradmo/internal/dataset"
	"hieradmo/internal/fl"
	"hieradmo/internal/model"
)

// Workload specifies one training setup (dataset, model, topology,
// heterogeneity, and schedule). Zero-valued hyper-parameters take the
// paper's defaults.
type Workload struct {
	// Dataset is one of "mnist", "cifar10", "imagenet", "har".
	Dataset string
	// Model is a model.ByName name ("linear", "logistic", "cnn", ...).
	Model string
	// Edges lists workers per edge (default: two edges of two workers, the
	// paper's Table II topology).
	Edges []int
	// ClassesPerWorker enables x-class non-IID partitioning; 0 keeps the
	// random (IID) shuffle the paper uses by default.
	ClassesPerWorker int
	// DirichletAlpha enables Dirichlet(α) non-IID partitioning (mutually
	// exclusive with ClassesPerWorker); 0 disables it.
	DirichletAlpha float64
	// Tau and Pi are the aggregation periods (defaults per paper: τ=10,π=2
	// for convex models, τ=20,π=2 otherwise).
	Tau, Pi int
	// T overrides the scale's iteration budget when positive.
	T int
	// Eta, Gamma, GammaEdge override the paper defaults when positive.
	Eta, Gamma, GammaEdge float64
}

// datasetConfig maps a dataset name to its synthetic generator config.
func datasetConfig(name string) (dataset.GenConfig, error) {
	switch name {
	case "mnist":
		return dataset.MNISTConfig(), nil
	case "cifar10":
		return dataset.CIFAR10Config(), nil
	case "imagenet":
		return dataset.ImageNetConfig(), nil
	case "har":
		return dataset.HARConfig(), nil
	default:
		return dataset.GenConfig{}, fmt.Errorf("experiment: unknown dataset %q", name)
	}
}

// convexModel reports whether the named model yields a convex objective.
func convexModel(name string) bool {
	return name == "linear" || name == "logistic"
}

// BuildConfig materializes a Workload at the given Scale into a validated
// fl.Config.
func BuildConfig(w Workload, s Scale) (*fl.Config, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	genCfg, err := datasetConfig(w.Dataset)
	if err != nil {
		return nil, err
	}
	gen, err := dataset.NewGenerator(genCfg, s.Seed)
	if err != nil {
		return nil, fmt.Errorf("experiment: %s generator: %w", w.Dataset, err)
	}
	train, test := gen.TrainTest(s.TrainSamples, s.TestSamples, s.Seed+1)

	edges := w.Edges
	if len(edges) == 0 {
		edges = []int{2, 2} // the paper's N=4, L=2 Table II topology
	}
	numWorkers := 0
	for _, c := range edges {
		numWorkers += c
	}
	if w.ClassesPerWorker > 0 && w.DirichletAlpha > 0 {
		return nil, fmt.Errorf("experiment: ClassesPerWorker and DirichletAlpha are mutually exclusive")
	}
	var shards []*dataset.Dataset
	switch {
	case w.ClassesPerWorker > 0:
		shards, err = dataset.PartitionClasses(train, numWorkers, w.ClassesPerWorker, s.Seed+2)
	case w.DirichletAlpha > 0:
		shards, err = dataset.PartitionDirichlet(train, numWorkers, w.DirichletAlpha, s.Seed+2)
	default:
		shards, err = dataset.PartitionIID(train, numWorkers, s.Seed+2)
	}
	if err != nil {
		return nil, fmt.Errorf("experiment: partition: %w", err)
	}
	hier, err := dataset.Hierarchy(shards, edges)
	if err != nil {
		return nil, fmt.Errorf("experiment: hierarchy: %w", err)
	}

	m, err := model.ByName(w.Model, genCfg.Shape, genCfg.NumClasses)
	if err != nil {
		return nil, err
	}

	convex := convexModel(w.Model)
	tau, pi := w.Tau, w.Pi
	if tau == 0 {
		if convex {
			tau = 10
		} else {
			tau = 20
		}
	}
	if pi == 0 {
		pi = 2
	}
	t := w.T
	if t == 0 {
		if convex {
			t = s.TConvex
		} else {
			t = s.TNonConvex
		}
	}
	// Round T up to a multiple of τπ (the paper picks budgets that divide).
	if rem := t % (tau * pi); rem != 0 {
		t += tau*pi - rem
	}
	eta := w.Eta
	if eta == 0 {
		eta = fl.DefaultEta
	}
	gamma := w.Gamma
	if gamma == 0 {
		gamma = fl.DefaultGamma
	}
	gammaEdge := w.GammaEdge
	if gammaEdge == 0 {
		gammaEdge = fl.DefaultGammaEdge
	}
	evalEvery := s.EvalEvery
	if evalEvery == 0 {
		evalEvery = t / 10
	}
	cfg := &fl.Config{
		Model:       m,
		Edges:       hier,
		Test:        test,
		Eta:         eta,
		Gamma:       gamma,
		GammaEdge:   gammaEdge,
		Tau:         tau,
		Pi:          pi,
		T:           t,
		BatchSize:   s.BatchSize,
		Workers:     s.Workers,
		Seed:        s.Seed + 17,
		EvalEvery:   evalEvery,
		EvalSamples: s.EvalSamples,
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// AllAlgorithms lists the 11 algorithms of Table II in the paper's row
// order: HierAdMo first, then the three comparison categories.
func AllAlgorithms() []fl.Algorithm {
	return []fl.Algorithm{
		core.New(),
		core.NewReduced(),
		baseline.NewHierFAVG(),
		baseline.NewCFL(),
		baseline.NewFastSlowMo(),
		baseline.NewFedADC(),
		baseline.NewFedMom(),
		baseline.NewSlowMo(),
		baseline.NewFedNAG(),
		baseline.NewMime(),
		baseline.NewFedAvg(),
	}
}
