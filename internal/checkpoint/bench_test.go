package checkpoint

import (
	"bytes"
	"fmt"
	"os"
	"testing"
)

// benchDim is the benchmark workload's model: the logistic model on the
// "imagenet" shape, as in internal/transport's wire benchmarks.
const benchDim = 15380

// benchShapes are the cluster_tcp_ckpt workload's snapshots: a leaf saves
// four model-sized vectors, a tier of four children twelve.
var benchShapes = []struct {
	name    string
	vectors int
}{{"leaf", 4}, {"tier", 12}}

// benchRegistry binds n model-sized vectors to a registry over mgr.
func benchRegistry(mgr *Manager, n int) *Registry {
	g := NewRegistry(mgr, "bench")
	for i := 0; i < n; i++ {
		v := make([]float64, benchDim)
		for j := range v {
			v[j] = float64(i*benchDim+j) * 1e-3
		}
		g.Vector(fmt.Sprintf("v%d", i), v)
	}
	return g
}

// BenchmarkRegistrySave is one node's snapshot at the cluster_tcp_ckpt
// workload's shapes, into a real directory (the fsync is part of the cost,
// which is why the gate reads this benchmark's B/op and allocs/op and only
// prints its ns/op). One untimed save per slot first, so both slot files and
// the registry's encode plan exist before the timer starts.
func BenchmarkRegistrySave(b *testing.B) {
	for _, shape := range benchShapes {
		b.Run(shape.name, func(b *testing.B) {
			mgr, err := NewManager(b.TempDir(), "node")
			if err != nil {
				b.Fatal(err)
			}
			g := benchRegistry(mgr, shape.vectors)
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

// BenchmarkSnapshotRead is Read of the snapshot BenchmarkRegistrySave writes,
// at the same shapes, from memory: what a resume, and every slot scan, pays
// to decode one generation.
func BenchmarkSnapshotRead(b *testing.B) {
	for _, shape := range benchShapes {
		b.Run(shape.name, func(b *testing.B) {
			mgr, err := NewManager(b.TempDir(), "node")
			if err != nil {
				b.Fatal(err)
			}
			if err := benchRegistry(mgr, shape.vectors).Save(1); err != nil {
				b.Fatal(err)
			}
			raw, err := os.ReadFile(mgr.slots[0])
			if err != nil {
				b.Fatal(err)
			}
			src := bytes.NewReader(raw)
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.Reset(raw)
				if _, err := Read(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
