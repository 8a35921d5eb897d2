// Depth-scaling benchmark of the N-tier cluster runtime. It lives in the
// core benchmark suite so the perf gate (make benchdiff against
// BENCH_core.json) tracks the tree engine's cost alongside the kernels,
// but in the external test package: the benchmark drives internal/cluster,
// which imports core.
package core_test

import (
	"fmt"
	"testing"

	"hieradmo/internal/cluster"
	"hieradmo/internal/dataset"
	"hieradmo/internal/fl"
	"hieradmo/internal/model"
	"hieradmo/internal/topology"
	"hieradmo/internal/transport"
)

// depthBenchConfig is the 8-leaf toy workload every depth shares: identical
// shards, model, and horizon, so the benchmark isolates the per-tier
// goroutine, messaging, and aggregation overhead the tree adds.
func depthBenchConfig(b *testing.B) *fl.Config {
	b.Helper()
	genCfg := dataset.GenConfig{
		Name:          "toy",
		Shape:         dataset.Shape{C: 1, H: 5, W: 5},
		NumClasses:    4,
		TemplateScale: 1.0,
		NoiseStd:      0.6,
		SmoothPasses:  1,
	}
	g, err := dataset.NewGenerator(genCfg, 19)
	if err != nil {
		b.Fatal(err)
	}
	train, test := g.TrainTest(320, 80, 20)
	shards, err := dataset.PartitionIID(train, 8, 21)
	if err != nil {
		b.Fatal(err)
	}
	hier, err := dataset.Hierarchy(shards, []int{4, 4})
	if err != nil {
		b.Fatal(err)
	}
	m, err := model.NewLogisticRegression(genCfg.Shape, genCfg.NumClasses)
	if err != nil {
		b.Fatal(err)
	}
	return &fl.Config{
		Model: m, Edges: hier, Test: test,
		Eta: 0.05, Gamma: 0.5, GammaEdge: 0.5,
		Tau: 2, Pi: 2, T: 24, BatchSize: 8, Seed: 19,
	}
}

// BenchmarkDepthScale runs the same workload through 2-, 3-, and 4-level
// aggregation trees over the in-memory transport: how much a full
// distributed round trip costs as tiers are added.
func BenchmarkDepthScale(b *testing.B) {
	specs := []string{
		"cloud:tau=4/worker*8",
		"cloud:tau=4/edge*2:tau=2/worker*4",
		"cloud:tau=8/region*2:tau=4/edge*2:tau=2/worker*2",
	}
	cfg := depthBenchConfig(b)
	for _, spec := range specs {
		topo, err := topology.Parse(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("depth=%d", len(topo.Levels)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := cluster.Run(cfg, transport.NewMemoryNetwork(),
					cluster.Options{Adaptive: true, Topology: topo})
				if err != nil {
					b.Fatal(err)
				}
				if res.FinalAcc <= 0 {
					b.Fatal("degenerate run")
				}
			}
		})
	}
}
