package checkpoint

import (
	"fmt"
	"testing"
)

// benchDim is the benchmark workload's model: the logistic model on the
// "imagenet" shape, as in internal/transport's wire benchmarks.
const benchDim = 15380

// BenchmarkRegistrySave is one node's snapshot at the cluster_tcp_ckpt
// workload's shapes, into a real directory (the fsync is part of the cost,
// which is why the gate reads this benchmark's B/op and allocs/op and only
// prints its ns/op): a leaf saves four model-sized vectors, a tier of four
// children twelve. One untimed save per slot first, so both slot files and
// the registry's buffer exist before the timer starts.
func BenchmarkRegistrySave(b *testing.B) {
	for _, shape := range []struct {
		name    string
		vectors int
	}{{"leaf", 4}, {"tier", 12}} {
		b.Run(shape.name, func(b *testing.B) {
			mgr, err := NewManager(b.TempDir(), "node")
			if err != nil {
				b.Fatal(err)
			}
			g := NewRegistry(mgr, "bench")
			for i := 0; i < shape.vectors; i++ {
				v := make([]float64, benchDim)
				for j := range v {
					v[j] = float64(i*benchDim+j) * 1e-3
				}
				g.Vector(fmt.Sprintf("v%d", i), v)
			}
			b.SetBytes(int64(shape.vectors * benchDim * 8))
			b.ReportAllocs()
			for i := -2; i < b.N; i++ {
				if i == 0 {
					b.ResetTimer()
				}
				if err := g.Save(i + 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
