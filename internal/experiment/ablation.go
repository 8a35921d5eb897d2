package experiment

import (
	"fmt"

	"hieradmo/internal/core"
	"hieradmo/internal/fl"
)

// RunAblationSignal compares the paper's adaptation statistic (the Σy
// inner-product of eq. (6)) against no adaptation at all (HierAdMo-R, the
// fixed factor of HierMo), on the non-IID workload where adaptation matters
// most.
func RunAblationSignal(s Scale) (*Table, error) {
	cfg, err := BuildConfig(Workload{
		Dataset: "mnist", Model: "cnn",
		ClassesPerWorker: 3,
	}, s)
	if err != nil {
		return nil, fmt.Errorf("ablation signal: %w", err)
	}
	variants := []struct {
		label string
		alg   fl.Algorithm
	}{
		{label: "ysum (paper eq. 6)", alg: core.New()},
		{label: "none (HierAdMo-R)", alg: core.NewReduced()},
	}
	tbl := &Table{
		Title:   "Ablation — gammaEdge adaptation signal, CNN on MNIST, 3-class non-IID",
		Columns: curveColumns,
	}
	for _, v := range variants {
		res, err := v.alg.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("ablation signal %s: %w", v.label, err)
		}
		tbl.AddRow(v.label, curveCells(res, cfg.T)...)
	}
	return tbl, nil
}

// RunAblationClampCeiling sweeps the γℓ upper clamp of eq. (7). The paper
// fixes 0.99; the sweep shows the sensitivity of that choice.
func RunAblationClampCeiling(s Scale) (*Table, error) {
	cfg, err := BuildConfig(Workload{
		Dataset: "mnist", Model: "cnn",
		ClassesPerWorker: 3,
	}, s)
	if err != nil {
		return nil, fmt.Errorf("ablation clamp: %w", err)
	}
	tbl := &Table{
		Title:   "Ablation — gammaEdge clamp ceiling (eq. 7), CNN on MNIST, 3-class non-IID",
		Columns: curveColumns,
	}
	for _, ceiling := range []float64{0.5, 0.9, 0.99, 0.999} {
		alg := core.New(core.WithClampCeiling(ceiling))
		res, err := alg.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("ablation clamp %.3f: %w", ceiling, err)
		}
		tbl.AddRow(fmt.Sprintf("ceiling=%.3f", ceiling), curveCells(res, cfg.T)...)
	}
	return tbl, nil
}

// Runner executes one named experiment at a scale.
type Runner func(s Scale) (*Table, error)

// Registry maps experiment IDs (as used by the CLI and DESIGN.md's
// per-experiment index) to their runners.
func Registry() map[string]Runner {
	return map[string]Runner{
		"table2":                 RunTableII,
		"fig2a":                  func(s Scale) (*Table, error) { return RunFig2TauSweep(s, nil, 0) },
		"fig2b":                  func(s Scale) (*Table, error) { return RunFig2PiSweep(s, 0, nil) },
		"fig2c":                  func(s Scale) (*Table, error) { return RunFig2JointSweep(s, 0) },
		"fig2d":                  RunFig2LargeN,
		"fig2e":                  func(s Scale) (*Table, error) { return RunFig2NonIID(s, 3) },
		"fig2f":                  func(s Scale) (*Table, error) { return RunFig2NonIID(s, 6) },
		"fig2g":                  func(s Scale) (*Table, error) { return RunFig2NonIID(s, 9) },
		"fig2h":                  func(s Scale) (*Table, error) { return RunFig2TrainingTime(s, TimingSetting1) },
		"fig2i":                  func(s Scale) (*Table, error) { return RunFig2AdaptiveGamma(s, 0.3) },
		"fig2j":                  func(s Scale) (*Table, error) { return RunFig2AdaptiveGamma(s, 0.6) },
		"fig2k":                  func(s Scale) (*Table, error) { return RunFig2AdaptiveGamma(s, 0.9) },
		"fig2l":                  func(s Scale) (*Table, error) { return RunFig2TrainingTime(s, TimingSetting2) },
		"ablation-signal":        RunAblationSignal,
		"ablation-clamp":         RunAblationClampCeiling,
		"ablation-participation": RunAblationParticipation,
		"ablation-arch":          RunAblationArchitecture,
		"dirichlet":              RunDirichletSweep,
		"quantization":           RunQuantizationSweep,
		"gamma-trace":            RunGammaTrace,
		"theory":                 RunTheoryBound,
		"churn":                  RunChurn,
		"byzantine":              RunByzantine,
		"depth":                  RunDepth,
	}
}

// ExperimentIDs returns the registry keys in a stable, report-friendly
// order.
func ExperimentIDs() []string {
	return []string{
		"table2",
		"fig2a", "fig2b", "fig2c", "fig2d",
		"fig2e", "fig2f", "fig2g",
		"fig2h", "fig2i", "fig2j", "fig2k", "fig2l",
		"ablation-signal", "ablation-clamp", "ablation-participation",
		"ablation-arch", "dirichlet", "quantization", "gamma-trace", "theory",
		"churn",
		"byzantine",
		"depth",
	}
}
