// The benchmarks live in the external test package: the baseline rows are
// measured beside HierAdMo on one config, and internal/baseline may import
// this package.
package core_test

import (
	"fmt"
	"testing"

	"hieradmo/internal/baseline"
	"hieradmo/internal/core"
	"hieradmo/internal/dataset"
	"hieradmo/internal/fl"
	"hieradmo/internal/model"
	"hieradmo/internal/rng"
	"hieradmo/internal/robust"
	"hieradmo/internal/tensor"
)

// benchCNNConfig builds the CNN workload the perf trajectory tracks
// (BENCH_core.json via `make bench`): 8 workers over 2 edges, the paper's
// non-convex aggregation schedule, no curve evaluation so the measurement is
// the round loop itself.
func benchCNNConfig(b *testing.B, workers int) *fl.Config {
	b.Helper()
	gen := dataset.GenConfig{
		Name:          "bench",
		Shape:         dataset.Shape{C: 1, H: 8, W: 8},
		NumClasses:    4,
		TemplateScale: 1.0,
		NoiseStd:      0.6,
		SmoothPasses:  1,
	}
	g, err := dataset.NewGenerator(gen, 1)
	if err != nil {
		b.Fatal(err)
	}
	train, test := g.TrainTest(320, 64, 2)
	shards, err := dataset.PartitionIID(train, 8, 3)
	if err != nil {
		b.Fatal(err)
	}
	hier, err := dataset.Hierarchy(shards, []int{4, 4})
	if err != nil {
		b.Fatal(err)
	}
	m, err := model.NewCNN(gen.Shape, gen.NumClasses)
	if err != nil {
		b.Fatal(err)
	}
	return &fl.Config{
		Model:     m,
		Edges:     hier,
		Test:      test,
		Eta:       0.05,
		Gamma:     0.5,
		GammaEdge: 0.5,
		Tau:       2,
		Pi:        2,
		T:         8,
		BatchSize: 8,
		Workers:   workers,
		Seed:      5,
	}
}

// benchRuns times b.N whole runs of alg. One untimed run comes first: the
// testing package collects garbage before every measurement, which empties
// the pools a run draws its slab and layer workspaces from, and whether the
// first run then finds its slab again depends on which P it lands on — a
// coin flip worth 90 kB/op at ten iterations. The steady state, a run that
// recycles the previous run's arena, is what the gate tracks.
func benchRuns(b *testing.B, alg fl.Algorithm, cfg *fl.Config) {
	b.Helper()
	if _, err := alg.Run(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alg.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHierAdMoCNN measures the Algorithm-1 round loop on the CNN
// workload across worker-pool sizes. Results are bit-identical at every
// size (see parallel_test.go); only wall-clock and allocation behaviour may
// differ. On a multi-core host workers=8 should beat workers=1 by the core
// count, up to the reduction phases' sequential share.
func BenchmarkHierAdMoCNN(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := benchCNNConfig(b, workers)
			benchRuns(b, core.New(), cfg)
		})
	}
}

// BenchmarkBaselineCNN measures three baselines on HierAdMoCNN's config at
// workers=1: FedAvg (plain SGD leaves, plain average), FedNAG (the kernel's
// leaf step, plain average) and Mime (a rule-owned server momentum). One run
// is T = 8 iterations and two cloud syncs, so B/op and allocs/op are the
// per-run set-up plus whatever a sync costs.
func BenchmarkBaselineCNN(b *testing.B) {
	for _, alg := range []fl.Algorithm{baseline.NewFedAvg(), baseline.NewFedNAG(), baseline.NewMime()} {
		b.Run(alg.Name(), func(b *testing.B) {
			benchRuns(b, alg, benchCNNConfig(b, 1))
		})
	}
}

// BenchmarkRobustAggregate prices the Byzantine defenses against the
// undefended mean on a realistic edge aggregation (8 reporters, 4096-dim
// model, the two Algorithm-1 line-11/12 components). The robust rules are
// slab-backed: after the first call every rule must run allocation-free,
// so B/op and allocs/op are pinned at zero by the perf gate.
func BenchmarkRobustAggregate(b *testing.B) {
	const dim, n = 4096, 8
	weights := make([]float64, n)
	comps := make([][]tensor.Vector, 2)
	for c := range comps {
		comps[c] = make([]tensor.Vector, n)
	}
	for i := 0; i < n; i++ {
		weights[i] = 1.0 / n
		for c := range comps {
			comps[c][i] = tensor.NewVector(dim)
			for j := 0; j < dim; j++ {
				comps[c][i][j] = float64((i+c)*dim+j%97) - 48
			}
		}
	}
	dsts := []tensor.Vector{tensor.NewVector(dim), tensor.NewVector(dim)}
	prev := []tensor.Vector{tensor.NewVector(dim), tensor.NewVector(dim)}
	for _, spec := range []robust.Spec{
		{Kind: robust.Mean},
		{Kind: robust.Median},
		{Kind: robust.Trimmed, Trim: 0.25},
		{Kind: robust.Clip, Clip: 100},
		{Kind: robust.Cosine, CosMin: -0.5},
	} {
		b.Run(spec.String(), func(b *testing.B) {
			agg, err := robust.New(spec)
			if err != nil {
				b.Fatal(err)
			}
			// Prime the aggregator's scratch slab so the measured loop is
			// the steady state the cluster rounds run in.
			if _, err := agg.Aggregate(dsts, prev, weights, comps); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := agg.Aggregate(dsts, prev, weights, comps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLeafStep times one worker NAG step (lines 5–6, Leaf.Step) at the
// sync workload's shape, dim 15 380, with the gradient already in Grad. The
// gradient is small and fixed, so the state drifts linearly and stays far
// from overflow and subnormals however many steps a run takes.
func BenchmarkLeafStep(b *testing.B) {
	const dim = 15380
	r := rng.New(43)
	x0 := tensor.NewVector(dim)
	for i := range x0 {
		x0[i] = r.Norm()
	}
	leaf := core.NewLeaf(x0, func() tensor.Vector { return tensor.NewVector(dim) })
	for i := range leaf.Grad {
		leaf.Grad[i] = 1e-3 * r.Norm()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := leaf.Step(0.05, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLeafParentRound times one leaf-parent round's kernel arithmetic at
// the sync workload's shape (dim 15 380, four reporters): every reporter's
// eq. (6) term, which the leaves compute in a run, and Tier.Update, with the
// reports already in memory. The rows are the adaptive level, HierAdMo-R's
// fixed factor, and the adaptive level under the robust median.
func BenchmarkLeafParentRound(b *testing.B) {
	const dim, fan = 15380, 4
	r := rng.New(41)
	vec := func() tensor.Vector {
		v := tensor.NewVector(dim)
		for i := range v {
			v[i] = r.Norm()
		}
		return v
	}
	x0 := vec()
	var ys, xs, gradSums, ySums []tensor.Vector
	for j := 0; j < fan; j++ {
		ys, xs, gradSums, ySums = append(ys, vec()), append(xs, vec()), append(gradSums, vec()), append(ySums, vec())
	}
	median, err := robust.New(robust.Spec{Kind: robust.Median})
	if err != nil {
		b.Fatal(err)
	}
	adaptive := core.Level{Momentum: true, Adapt: true, Gamma: 0.5,
		Ceiling: core.DefaultClampCeiling, Tau: 2, X0: x0}
	withMedian := adaptive
	withMedian.Agg = median
	full := []float64{0.25, 0.25, 0.25, 0.25}
	idx := []int{0, 1, 2, 3}
	for _, row := range []struct {
		name string
		lv   core.Level
	}{
		{"ysum", adaptive},
		{"reduced", core.Level{Momentum: true, Gamma: 0.5, X0: x0}},
		{"median", withMedian},
	} {
		b.Run(row.name, func(b *testing.B) {
			tier := core.NewTier(row.lv, fan, func() tensor.Vector { return tensor.NewVector(dim) })
			round := func() {
				for j := 0; j < fan; j++ {
					tier.Y[j], tier.X[j] = ys[j], xs[j]
					if !row.lv.Adapt {
						continue
					}
					c, err := row.lv.Term(gradSums[j], ySums[j])
					if err != nil {
						b.Fatal(err)
					}
					tier.Cos[j] = c
				}
				if _, err := tier.Update(full, idx, 1); err != nil {
					b.Fatal(err)
				}
			}
			round()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
		})
	}
}

// BenchmarkEdgeCosine tracks the hot-loop fix that folded the gradient
// negation into the cosine reduction: allocs/op must stay at zero.
func BenchmarkEdgeCosine(b *testing.B) {
	const dim, n = 4096, 8
	weights := make([]float64, n)
	gradSums := make([]tensor.Vector, n)
	signals := make([]tensor.Vector, n)
	for i := 0; i < n; i++ {
		weights[i] = 1.0 / n
		gradSums[i] = tensor.NewVector(dim)
		signals[i] = tensor.NewVector(dim)
		for j := 0; j < dim; j++ {
			gradSums[i][j] = float64(i*dim+j%97) - 48
			signals[i][j] = 48 - float64(i*dim+j%89)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EdgeCosine(weights, gradSums, signals); err != nil {
			b.Fatal(err)
		}
	}
}
