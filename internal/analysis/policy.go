package analysis

import "slices"

// Policy decides which checkers run on which packages, and carries the
// checker-specific tables: the nilsink type list and the
// checkpoint-registry types ckptstate keys on. The zero policy runs
// nothing; DefaultPolicy encodes the repo's package table (documented in
// DESIGN.md §11).
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
	return func(p string) bool { return !slices.Contains(paths, p) }
}

// only applies a checker to exactly the listed import paths.
func only(paths ...string) func(string) bool {
	return func(p string) bool { return slices.Contains(paths, p) }
}

// DefaultPolicy is the repo's enforcement table for the module rooted at
// modulePath (normally "hieradmo"):
//
//   - detwall runs everywhere except internal/cluster and
//     internal/transport, whose receive timeouts and straggler deadlines
//     are wall-clock by design (failure detection cannot be deterministic).
//     Within internal/cluster the exemption is narrower than it looks: only
//     the driver (drive) reads the clock for deadlines. The node machines
//     take the time as their now input and do their deadline arithmetic
//     (straggler grace, quorum horizons, sync waits) on it, so
//     quorum-timing tests feed synthetic times instead of scaling real
//     sleeps; the rest of the package reads the wall clock for duration
//     metrics only. New cluster code that compares against a deadline
//     should take now from its caller, not call time.Now();
//   - maporder runs everywhere: map iteration order must never reach a
//     float reduction, an ordered accumulation, or the trace;
//   - goexec runs everywhere except internal/parallel (the sanctioned
//     worker pool) and internal/cluster (the supervised node runtime);
//   - ckptstate runs everywhere: any struct registering state with
//     internal/checkpoint.Registry (directly or through fl.Checkpointer)
//     must register every mutable stateful field;
//   - wirealloc runs on the packages that decode wire or snapshot bytes;
//   - nilsink runs on internal/telemetry, over the instrument and sink
//     types whose nil fast path the hot loops rely on.
func DefaultPolicy(modulePath string) Policy {
	in := func(rel string) string { return modulePath + "/" + rel }
	// Policy predicates see only module packages, so "everywhere" means
	// every package of this module.
	return Policy{
		Rules: map[string]func(string) bool{
			"detwall":   except(in("internal/cluster"), in("internal/transport")),
			"maporder":  anyPackage,
			"goexec":    except(in("internal/parallel"), in("internal/cluster")),
			"ckptstate": anyPackage,
			"wirealloc": only(
				in("internal/transport"),
				in("internal/checkpoint"),
				in("internal/telemetry"),
				in("cmd/tracecat"),
			),
			"nilsink": only(in("internal/telemetry")),
		},
		NilGuardTypes:  []string{"Counter", "Gauge", "Histogram", "Sink", "Tracer"},
		CkptRegistries: []string{in("internal/checkpoint") + ".Registry"},
	}
}
