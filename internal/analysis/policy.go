package analysis

// Policy decides which checkers run on which packages, and carries the
// checker-specific tables: the nilsink type list, the checkpoint-registry
// types ckptstate keys on, and the pinned allocation-free hot-path roots
// for allocfree. The zero policy runs nothing; DefaultPolicy encodes the
// repo's package table (documented in DESIGN.md §11 and §13).
type Policy struct {
	// Rules maps a checker name to the predicate deciding whether it runs
	// on a package import path. A missing entry disables the checker.
	Rules map[string]func(pkgPath string) bool
	// NilGuardTypes are the receiver type names whose pointer methods
	// nilsink requires to begin with a nil-receiver guard.
	NilGuardTypes []string
	// CkptRegistries names the registry types ("pkg/path.Type") whose
	// Vector/RNG/Int/Float/Dynamic methods are snapshot-registration
	// primitives for ckptstate.
	CkptRegistries []string
	// HotFuncs pins exact functions ("pkg/path.Func" or
	// "(*pkg/path.Type).Method", as types.Func.FullName renders them) as
	// allocation-free hot-path roots for allocfree.
	HotFuncs []string
	// HotIfaces pins interface methods ("pkg/path.Iface.Method"); every
	// loaded implementation becomes an allocfree root.
	HotIfaces []string
}

// Applies reports whether checker runs on the package at path.
func (p Policy) Applies(checker, path string) bool {
	rule, ok := p.Rules[checker]
	return ok && rule != nil && rule(path)
}

// anyPackage applies a checker everywhere.
func anyPackage(string) bool { return true }

// except applies a checker everywhere but the listed import paths.
func except(paths ...string) func(string) bool {
	return func(p string) bool {
		for _, x := range paths {
			if p == x {
				return false
			}
		}
		return true
	}
}

// only applies a checker to exactly the listed import paths.
func only(paths ...string) func(string) bool {
	return func(p string) bool {
		for _, x := range paths {
			if p == x {
				return true
			}
		}
		return false
	}
}

// DefaultPolicy is the repo's enforcement table for the module rooted at
// modulePath (normally "hieradmo"):
//
//   - detwall runs everywhere except internal/cluster and
//     internal/transport, whose receive timeouts and straggler deadlines
//     are wall-clock by design (failure detection cannot be deterministic).
//     Within internal/cluster the exemption is narrower than it looks:
//     deadline *arithmetic* (straggler grace, quorum horizons, interrupt
//     slicing) goes through the injectable cluster.Options.Clock seam, so
//     quorum-timing tests substitute a fake clock instead of scaling real
//     sleeps; only the actual socket waits and duration metrics read the
//     wall clock directly. New cluster code should reach for Options.now(),
//     not time.Now(), whenever the value feeds a deadline comparison;
//   - maporder runs everywhere: map iteration order must never reach a
//     float reduction, an ordered accumulation, or the trace;
//   - fporder runs everywhere except internal/parallel (the sanctioned
//     reducers): float reductions iterate slices or sorted keys in fixed
//     index order, never channel-receive order or goroutine fan-in;
//   - goexec runs everywhere except internal/parallel (the sanctioned
//     worker pool) and internal/cluster (the supervised node runtime);
//   - ckptstate runs everywhere: any struct registering state with
//     internal/checkpoint.Registry (directly or through fl.Checkpointer)
//     must register every mutable stateful field;
//   - allocfree runs everywhere; what it checks is pinned by the root
//     table below — the Algorithm 1 kernel in internal/core (leaf step,
//     tier update) and the shared gradient step in internal/fl, the
//     GEMM kernels in internal/tensor, the dense and conv layers and the
//     block loss-gradient in internal/nn, the wire frame encode and decode in
//     internal/transport, the snapshot encode in internal/checkpoint, and
//     every robust.Aggregator implementation. The kernel packages carry no
//     exemptions (enforcement pinned in TestDefaultPolicyTable);
//   - wirealloc runs on the packages that decode wire or snapshot bytes;
//   - nilsink runs on internal/telemetry, over the instrument and sink
//     types whose nil fast path the hot loops rely on.
func DefaultPolicy(modulePath string) Policy {
	in := func(rel string) string {
		if rel == "" {
			return modulePath
		}
		return modulePath + "/" + rel
	}
	// Policy predicates see only module packages, so "everywhere" means
	// every package of this module.
	return Policy{
		Rules: map[string]func(string) bool{
			"detwall":   except(in("internal/cluster"), in("internal/transport")),
			"maporder":  anyPackage,
			"fporder":   except(in("internal/parallel")),
			"goexec":    except(in("internal/parallel"), in("internal/cluster")),
			"ckptstate": anyPackage,
			"allocfree": anyPackage,
			"wirealloc": only(
				in("internal/transport"),
				in("internal/persist"),
				in("internal/checkpoint"),
				in("internal/telemetry"),
				in("cmd/tracecat"),
			),
			"nilsink": only(in("internal/telemetry")),
		},
		NilGuardTypes:  []string{"Counter", "Gauge", "Histogram", "Sink", "Tracer"},
		CkptRegistries: []string{in("internal/checkpoint") + ".Registry"},
		HotFuncs: []string{
			// The Algorithm 1 kernel — the per-iteration leaf step and the
			// per-round tier update — and the gradient step feeding it: the
			// steady-state inner loops of the simulation and the cluster
			// runtime alike.
			"(*" + in("internal/core") + ".Leaf).Step",
			"(*" + in("internal/core") + ".Tier).Update",
			"(*" + in("internal/fl") + ".GradOracle).Grad",
			// The GEMM kernels every dense/conv layer reduces to, and the two
			// bodies of each: the per-architecture dispatch (on amd64 it
			// calls the AVX2 assembly, staging a panel on the stack for
			// GEMMAddTransB) and the portable loops.
			in("internal/tensor") + ".GEMMBias",
			in("internal/tensor") + ".GEMMAddTransB",
			in("internal/tensor") + ".GEMMAdd",
			in("internal/tensor") + ".gemmBias",
			in("internal/tensor") + ".gemmAddTransB",
			in("internal/tensor") + ".gemmAdd",
			in("internal/tensor") + ".gemmBiasGeneric",
			in("internal/tensor") + ".gemmAddTransBGeneric",
			in("internal/tensor") + ".gemmAddGeneric",
			// The mini-batch gradient: blocks of samples taken through the
			// layer stack inside a workspace off the network's free list.
			"(*" + in("internal/nn") + ".Network).LossGradBatch",
			// The fully connected layer — the whole gradient of the convex
			// models and the head of every conv net — one block at a time.
			"(*" + in("internal/nn") + ".Dense).Forward",
			"(*" + in("internal/nn") + ".Dense).Backward",
			"(*" + in("internal/nn") + ".Dense).forwardBlock",
			"(*" + in("internal/nn") + ".Dense).backwardBlock",
			// The im2col conv kernels and the fused conv+ReLU fast path.
			"(*" + in("internal/nn") + ".Conv2D).Forward",
			"(*" + in("internal/nn") + ".Conv2D).Backward",
			"(*" + in("internal/nn") + ".convReLU).Forward",
			"(*" + in("internal/nn") + ".convReLU).Backward",
			// The wire codec: every message of a TCP run is encoded from the
			// sender's vectors and decoded into a link-owned buffer.
			in("internal/transport") + ".encodeFrame",
			"(*" + in("internal/transport") + ".decoder).decode",
			// The snapshot encode: with checkpointing on, every node lays its
			// registered state into a registry-owned buffer once per round.
			"(*" + in("internal/checkpoint") + ".Registry).encode",
		},
		HotIfaces: []string{
			// Every robust aggregation rule runs once per round per tier on
			// whole-cohort state: all implementations are pinned.
			in("internal/robust") + ".Aggregator.Aggregate",
		},
	}
}
