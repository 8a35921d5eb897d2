package hieradmo

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"hieradmo/internal/experiment"
)

// The benchmarks below regenerate every table and figure of the paper's
// evaluation at BenchScale (scaled-down datasets/iteration budgets that
// preserve ordering; see DESIGN.md §1 and §4). Each benchmark prints the
// regenerated table so `go test -bench=.` output contains the same rows the
// paper reports, and exports the HierAdMo headline accuracy as a custom
// metric.

// runExperimentBench executes runner b.N times and emits the final table.
func runExperimentBench(b *testing.B, runner experiment.Runner, s experiment.Scale) {
	b.Helper()
	var (
		tbl *experiment.Table
		err error
	)
	for i := 0; i < b.N; i++ {
		tbl, err = runner(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportHeadline(b, tbl)
	fmt.Printf("\n%s\n", tbl.Render())
}

// reportHeadline exports the first parseable cell of the first row (the
// HierAdMo column in accuracy tables) as a benchmark metric.
func reportHeadline(b *testing.B, tbl *experiment.Table) {
	b.Helper()
	if tbl == nil || len(tbl.Rows) == 0 {
		return
	}
	for _, cell := range tbl.Rows[0].Cells {
		if v, err := strconv.ParseFloat(cell, 64); err == nil {
			unit := strings.ReplaceAll(tbl.Rows[0].Label, " ", "_") + "_%"
			b.ReportMetric(v, unit)
			return
		}
	}
}

// BenchmarkTableII regenerates Table II one model×dataset column at a time
// (11 algorithms per column).
func BenchmarkTableII(b *testing.B) {
	for _, combo := range experiment.TableIICombos() {
		combo := combo
		b.Run(combo.Label, func(b *testing.B) {
			runExperimentBench(b, func(s experiment.Scale) (*experiment.Table, error) {
				return experiment.RunTableIISubset(s, []experiment.Combo{combo})
			}, experiment.BenchScale())
		})
	}
}

// BenchmarkFig2a_TauSweep regenerates Fig. 2(a): effect of τ with π fixed.
func BenchmarkFig2a_TauSweep(b *testing.B) {
	runExperimentBench(b, func(s experiment.Scale) (*experiment.Table, error) {
		return experiment.RunFig2TauSweep(s, nil, 0)
	}, experiment.BenchScale())
}

// BenchmarkFig2b_PiSweep regenerates Fig. 2(b): effect of π with τ fixed.
func BenchmarkFig2b_PiSweep(b *testing.B) {
	runExperimentBench(b, func(s experiment.Scale) (*experiment.Table, error) {
		return experiment.RunFig2PiSweep(s, 0, nil)
	}, experiment.BenchScale())
}

// BenchmarkFig2c_JointSweep regenerates Fig. 2(c): fixed τ·π, varying split.
func BenchmarkFig2c_JointSweep(b *testing.B) {
	runExperimentBench(b, func(s experiment.Scale) (*experiment.Table, error) {
		return experiment.RunFig2JointSweep(s, 0)
	}, experiment.BenchScale())
}

// BenchmarkFig2d_LargeN regenerates Fig. 2(d): N=100 workers. The iteration
// budget is reduced relative to the other benches because cost scales with
// worker count (25× the default topology).
func BenchmarkFig2d_LargeN(b *testing.B) {
	s := experiment.BenchScale()
	s.TrainSamples = 1200
	s.TNonConvex = 80
	s.BatchSize = 4
	s.EvalEvery = 20
	runExperimentBench(b, experiment.RunFig2LargeN, s)
}

// BenchmarkFig2e_NonIID3 regenerates Fig. 2(e): 3-class non-IID.
func BenchmarkFig2e_NonIID3(b *testing.B) {
	runExperimentBench(b, func(s experiment.Scale) (*experiment.Table, error) {
		return experiment.RunFig2NonIID(s, 3)
	}, experiment.BenchScale())
}

// BenchmarkFig2f_NonIID6 regenerates Fig. 2(f): 6-class non-IID.
func BenchmarkFig2f_NonIID6(b *testing.B) {
	runExperimentBench(b, func(s experiment.Scale) (*experiment.Table, error) {
		return experiment.RunFig2NonIID(s, 6)
	}, experiment.BenchScale())
}

// BenchmarkFig2g_NonIID9 regenerates Fig. 2(g): 9-class non-IID.
func BenchmarkFig2g_NonIID9(b *testing.B) {
	runExperimentBench(b, func(s experiment.Scale) (*experiment.Table, error) {
		return experiment.RunFig2NonIID(s, 9)
	}, experiment.BenchScale())
}

// BenchmarkFig2h_TrainingTime1 regenerates Fig. 2(h): trace-driven training
// time under setting 1 (τ=10, π=2 three-tier / τ=20 two-tier).
func BenchmarkFig2h_TrainingTime1(b *testing.B) {
	runExperimentBench(b, func(s experiment.Scale) (*experiment.Table, error) {
		return experiment.RunFig2TrainingTime(s, experiment.TimingSetting1)
	}, experiment.BenchScale())
}

// BenchmarkFig2l_TrainingTime2 regenerates Fig. 2(l): setting 2 (τ=20, π=2
// three-tier / τ=40 two-tier).
func BenchmarkFig2l_TrainingTime2(b *testing.B) {
	runExperimentBench(b, func(s experiment.Scale) (*experiment.Table, error) {
		return experiment.RunFig2TrainingTime(s, experiment.TimingSetting2)
	}, experiment.BenchScale())
}

// BenchmarkFig2i regenerates Fig. 2(i): adaptive vs fixed γℓ at γ=0.3.
func BenchmarkFig2i_AdaptiveGamma03(b *testing.B) {
	runExperimentBench(b, func(s experiment.Scale) (*experiment.Table, error) {
		return experiment.RunFig2AdaptiveGamma(s, 0.3)
	}, experiment.BenchScale())
}

// BenchmarkFig2j regenerates Fig. 2(j): adaptive vs fixed γℓ at γ=0.6.
func BenchmarkFig2j_AdaptiveGamma06(b *testing.B) {
	runExperimentBench(b, func(s experiment.Scale) (*experiment.Table, error) {
		return experiment.RunFig2AdaptiveGamma(s, 0.6)
	}, experiment.BenchScale())
}

// BenchmarkFig2k regenerates Fig. 2(k): adaptive vs fixed γℓ at γ=0.9.
func BenchmarkFig2k_AdaptiveGamma09(b *testing.B) {
	runExperimentBench(b, func(s experiment.Scale) (*experiment.Table, error) {
		return experiment.RunFig2AdaptiveGamma(s, 0.9)
	}, experiment.BenchScale())
}

// BenchmarkAblationSignal compares the eq. (6) adaptation of γℓ against no
// adaptation, HierAdMo-R's fixed factor (design-choice ablation from
// DESIGN.md §4).
func BenchmarkAblationSignal(b *testing.B) {
	runExperimentBench(b, experiment.RunAblationSignal, experiment.BenchScale())
}

// BenchmarkAblationClampCeiling sweeps the eq. (7) γℓ clamp ceiling.
func BenchmarkAblationClampCeiling(b *testing.B) {
	runExperimentBench(b, experiment.RunAblationClampCeiling, experiment.BenchScale())
}

// BenchmarkAblationParticipation extends HierAdMo to partial worker
// participation (the cross-device regime the paper leaves as future work).
func BenchmarkAblationParticipation(b *testing.B) {
	runExperimentBench(b, experiment.RunAblationParticipation, experiment.BenchScale())
}

// BenchmarkAblationArchitecture compares the flatten-dense CNN head against
// a global-average-pool head under HierAdMo.
func BenchmarkAblationArchitecture(b *testing.B) {
	runExperimentBench(b, experiment.RunAblationArchitecture, experiment.BenchScale())
}

// BenchmarkDirichletSweep extends the heterogeneity study with the
// Dirichlet(α) partitioning protocol.
func BenchmarkDirichletSweep(b *testing.B) {
	runExperimentBench(b, experiment.RunDirichletSweep, experiment.BenchScale())
}

// BenchmarkQuantizationSweep measures HierAdMo's tolerance to lossy uplink
// compression (bit width vs accuracy vs compression ratio).
func BenchmarkQuantizationSweep(b *testing.B) {
	runExperimentBench(b, experiment.RunQuantizationSweep, experiment.BenchScale())
}

// BenchmarkGammaTrace records the adapted γℓ trajectory (the diagnostic
// behind Fig. 2(i)-(k)).
func BenchmarkGammaTrace(b *testing.B) {
	runExperimentBench(b, experiment.RunGammaTrace, experiment.BenchScale())
}

// BenchmarkTheoryBound regenerates the measured-δ vs Theorem-4 gap table
// connecting the non-IID level to the theoretical convergence gap.
func BenchmarkTheoryBound(b *testing.B) {
	runExperimentBench(b, experiment.RunTheoryBound, experiment.BenchScale())
}
