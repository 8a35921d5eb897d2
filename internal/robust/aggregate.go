package robust

import (
	"fmt"
	"sort"

	"hieradmo/internal/tensor"
)

// Kind selects an aggregation rule.
type Kind int

const (
	// Mean is the undefended weighted average — the HierAdMo baseline.
	// The cluster runtime keeps its original tensor.WeightedSum code
	// path for Mean so undefended runs stay byte-identical to pre-robust
	// builds; MeanAggregator exists for benchmarks and tests.
	Mean Kind = iota
	// Median takes the coordinate-wise median across reporters
	// (weight-agnostic, the classic Byzantine-robust rule).
	Median
	// Trimmed drops the Trim fraction of extreme values per coordinate
	// from each tail, then averages the rest (coordinate-wise trimmed
	// mean, weight-agnostic).
	Trimmed
	// Clip bounds each reporter's deviation from the previous aggregate
	// to L2 norm Clip before weighted averaging (norm-clipping).
	Clip
	// Cosine rejects reporters whose primary-component deviation points
	// away from the cohort's coordinate-wise median deviation — the same
	// direction-agreement geometry core.EdgeCosine uses for γℓ
	// adaptation, turned into an outlier filter. The reference is a
	// median (not a weighted mean) so a single large-norm attacker
	// cannot hijack the reference and get the honest majority rejected.
	Cosine
)

// String returns the CLI name of the kind.
func (k Kind) String() string {
	switch k {
	case Mean:
		return "mean"
	case Median:
		return "median"
	case Trimmed:
		return "trimmed"
	case Clip:
		return "clip"
	case Cosine:
		return "cosine"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ParseKind parses a CLI aggregator name.
func ParseKind(name string) (Kind, error) {
	switch name {
	case "mean":
		return Mean, nil
	case "median":
		return Median, nil
	case "trimmed":
		return Trimmed, nil
	case "clip":
		return Clip, nil
	case "cosine":
		return Cosine, nil
	}
	return 0, fmt.Errorf("robust: unknown aggregator %q (want mean|median|trimmed|clip|cosine)", name)
}

// Spec is a fully-parameterized aggregator choice for one tier. The zero
// Spec is plain mean aggregation.
type Spec struct {
	Kind   Kind
	Trim   float64 // Trimmed: per-tail fraction in [0, 0.5)
	Clip   float64 // Clip: max L2 deviation norm, > 0
	CosMin float64 // Cosine: minimum cosine against the cohort's median deviation, in [-1, 1]
}

// Robust reports whether the spec selects anything other than plain mean.
func (s Spec) Robust() bool { return s.Kind != Mean }

// String renders the spec canonically; it feeds checkpoint fingerprints,
// so equal specs must render equally.
func (s Spec) String() string {
	switch s.Kind {
	case Trimmed:
		return fmt.Sprintf("trimmed(%g)", s.Trim)
	case Clip:
		return fmt.Sprintf("clip(%g)", s.Clip)
	case Cosine:
		return fmt.Sprintf("cosine(%g)", s.CosMin)
	}
	return s.Kind.String()
}

// Validate checks the spec's parameters.
func (s Spec) Validate() error {
	switch s.Kind {
	case Mean, Median:
	case Trimmed:
		if !(s.Trim >= 0 && s.Trim < 0.5) {
			return fmt.Errorf("robust: trim fraction %g out of [0, 0.5)", s.Trim)
		}
	case Clip:
		if !(s.Clip > 0) {
			return fmt.Errorf("robust: clip norm must be > 0, got %g", s.Clip)
		}
	case Cosine:
		if !(s.CosMin >= -1 && s.CosMin <= 1) {
			return fmt.Errorf("robust: cosine threshold %g out of [-1, 1]", s.CosMin)
		}
	default:
		return fmt.Errorf("robust: unknown aggregator kind %d", int(s.Kind))
	}
	return nil
}

// Stats reports what one Aggregate call did. Rejected and Clipped are
// ascending reporter slot indices into the call's cohort; both alias
// aggregator-owned scratch valid until the next call.
type Stats struct {
	Participants int
	Rejected     []int
	Clipped      []int
	// MaxNorm is the largest pre-clip deviation norm seen (Clip only).
	MaxNorm float64
}

// Aggregator reduces a cohort of reports into new aggregate state. One
// call reduces ncomp parallel components (e.g. the edge's y and x
// streams): dsts[c] receives the aggregate of comps[c][0..n-1], with
// prev[c] the previous aggregate (the deviation reference for Clip and
// Cosine). dsts must not alias prev or any comps entry. weights[j] is
// reporter j's cohort weight; the weight-sensitive rules renormalize
// over survivors, the coordinate-wise rules (Median, Trimmed) ignore
// weights by construction.
//
// Every rule except Mean rejects reporters carrying non-finite values
// instead of propagating them; a cohort with no finite reporter is an
// error. Reductions run in fixed slot order, so results are independent
// of goroutine scheduling and pool size.
//
// Implementations reuse internal scratch and are not safe for
// concurrent use; the cluster gives each edge/cloud node its own.
type Aggregator interface {
	Name() string
	Aggregate(dsts, prev []tensor.Vector, weights []float64, comps [][]tensor.Vector) (Stats, error)
}

// New builds the aggregator for spec. All kinds are constructible,
// including Mean (used by benchmarks; the cluster keeps its own mean
// path for bit-identity with pre-robust builds).
func New(s Spec) (Aggregator, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	switch s.Kind {
	case Mean:
		return &meanAgg{}, nil
	case Median:
		return &medianAgg{}, nil
	case Trimmed:
		return &trimmedAgg{trim: s.Trim}, nil
	case Clip:
		return &clipAgg{clip: s.Clip}, nil
	case Cosine:
		return &cosineAgg{cosMin: s.CosMin}, nil
	}
	return nil, fmt.Errorf("robust: unknown aggregator kind %d", int(s.Kind))
}

// checkShape validates one Aggregate call; every rule shares it so
// malformed cohorts (mismatched lengths, empty cohorts) surface as
// wrapped errors, never panics — the fuzz targets pin this.
func checkShape(dsts, prev []tensor.Vector, weights []float64, comps [][]tensor.Vector) error {
	if len(dsts) == 0 {
		return fmt.Errorf("robust: no components to aggregate")
	}
	if len(prev) != len(dsts) || len(comps) != len(dsts) {
		return fmt.Errorf("robust: component count mismatch: dsts=%d prev=%d comps=%d",
			len(dsts), len(prev), len(comps))
	}
	n := len(weights)
	if n == 0 {
		return fmt.Errorf("robust: empty cohort")
	}
	for c := range dsts {
		dim := len(dsts[c])
		if len(prev[c]) != dim {
			return fmt.Errorf("robust: component %d: prev dim %d, want %d", c, len(prev[c]), dim)
		}
		if len(comps[c]) != n {
			return fmt.Errorf("robust: component %d: %d reports for %d weights", c, len(comps[c]), n)
		}
		for j, v := range comps[c] {
			if len(v) != dim {
				return fmt.Errorf("robust: component %d report %d: dim %d, want %d", c, j, len(v), dim)
			}
		}
	}
	return nil
}

// checkFiniteOutput guards the reduction result: even all-finite inputs
// can overflow a sum to ±Inf, and the robust rules' contract is to
// error, never to propagate non-finite values downstream. (The mean
// baseline is exempt — it reproduces the undefended WeightedSum
// arithmetic exactly.)
func checkFiniteOutput(name string, dsts []tensor.Vector) error {
	for c := range dsts {
		if !dsts[c].IsFinite() {
			return fmt.Errorf("robust: %s: aggregate overflowed to non-finite values in component %d", name, c)
		}
	}
	return nil
}

// scratch holds the per-call working state shared by the rules. Slices
// grow once to cohort/dim size and are reused across rounds
// (slab-friendly: steady-state Aggregate calls allocate nothing).
type scratch struct {
	ok       []bool
	rejected []int
	clipped  []int
	vals     []float64
	w        []float64
	vs       []tensor.Vector
	dev      tensor.Vector
	mu       tensor.Vector
}

func (s *scratch) reset(n int) {
	if cap(s.ok) < n {
		s.ok = make([]bool, n)
		s.rejected = make([]int, 0, n)
		s.clipped = make([]int, 0, n)
		s.w = make([]float64, 0, n)
		s.vs = make([]tensor.Vector, 0, n)
		s.vals = make([]float64, 0, n)
	}
	s.ok = s.ok[:n]
	for j := range s.ok {
		s.ok[j] = true
	}
	s.rejected = s.rejected[:0]
	s.clipped = s.clipped[:0]
}

func (s *scratch) vecs(dim int) {
	if len(s.dev) != dim {
		s.dev = tensor.NewVector(dim)
		s.mu = tensor.NewVector(dim)
	}
}

// rejectNonFinite marks every reporter with a NaN/Inf in any component
// as rejected. Slots are scanned in ascending order so Rejected comes
// out sorted.
func (s *scratch) rejectNonFinite(comps [][]tensor.Vector, n int) {
	for j := 0; j < n; j++ {
		for c := range comps {
			if !comps[c][j].IsFinite() {
				s.ok[j] = false
				s.rejected = append(s.rejected, j)
				break
			}
		}
	}
}

func (s *scratch) survivors() int {
	n := 0
	for _, ok := range s.ok {
		if ok {
			n++
		}
	}
	return n
}

// renorm fills s.w with weights renormalized over surviving slots
// (indexed densely in slot order). A zero surviving mass is an error:
// the rule would otherwise divide by zero.
func (s *scratch) renorm(weights []float64) error {
	s.w = s.w[:0]
	sum := 0.0
	for j, ok := range s.ok {
		if ok {
			sum += weights[j]
		}
	}
	if !(sum > 0) {
		return fmt.Errorf("robust: surviving cohort weight %g, cannot renormalize", sum)
	}
	for j, ok := range s.ok {
		if ok {
			s.w = append(s.w, weights[j]/sum)
		}
	}
	return nil
}

// meanAgg is the undefended baseline: tensor.WeightedSum per component.
// It neither rejects nor clips — exactly the arithmetic the cluster's
// built-in mean path performs.
type meanAgg struct{}

func (*meanAgg) Name() string { return "mean" }

func (*meanAgg) Aggregate(dsts, prev []tensor.Vector, weights []float64, comps [][]tensor.Vector) (Stats, error) {
	if err := checkShape(dsts, prev, weights, comps); err != nil {
		return Stats{}, err
	}
	for c := range dsts {
		if err := tensor.WeightedSum(dsts[c], weights, comps[c]); err != nil {
			return Stats{}, err
		}
	}
	return Stats{Participants: len(weights)}, nil
}

// insertionSort sorts the tiny per-coordinate gather buffer in place.
// Cohorts are small (fan-in per edge), so this beats sort.Float64s and
// allocates nothing.
func insertionSort(a []float64) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

type medianAgg struct{ s scratch }

func (*medianAgg) Name() string { return "median" }

func (m *medianAgg) Aggregate(dsts, prev []tensor.Vector, weights []float64, comps [][]tensor.Vector) (Stats, error) {
	if err := checkShape(dsts, prev, weights, comps); err != nil {
		return Stats{}, err
	}
	n := len(weights)
	m.s.reset(n)
	m.s.rejectNonFinite(comps, n)
	ns := m.s.survivors()
	if ns == 0 {
		return Stats{}, fmt.Errorf("robust: median: no finite reports in cohort of %d", n)
	}
	for c := range dsts {
		for d := range dsts[c] {
			vals := m.s.vals[:0]
			for j := 0; j < n; j++ {
				if m.s.ok[j] {
					vals = append(vals, comps[c][j][d])
				}
			}
			insertionSort(vals)
			mid := ns / 2
			if ns%2 == 1 {
				dsts[c][d] = vals[mid]
			} else {
				dsts[c][d] = (vals[mid-1] + vals[mid]) / 2
			}
			m.s.vals = vals
		}
	}
	if err := checkFiniteOutput("median", dsts); err != nil {
		return Stats{}, err
	}
	return Stats{Participants: n, Rejected: m.s.rejected}, nil
}

type trimmedAgg struct {
	trim float64
	s    scratch
}

func (*trimmedAgg) Name() string { return "trimmed" }

func (m *trimmedAgg) Aggregate(dsts, prev []tensor.Vector, weights []float64, comps [][]tensor.Vector) (Stats, error) {
	if err := checkShape(dsts, prev, weights, comps); err != nil {
		return Stats{}, err
	}
	n := len(weights)
	m.s.reset(n)
	m.s.rejectNonFinite(comps, n)
	ns := m.s.survivors()
	if ns == 0 {
		return Stats{}, fmt.Errorf("robust: trimmed: no finite reports in cohort of %d", n)
	}
	// Trim g values per tail; never trim everything — a single-survivor
	// cohort degrades to that survivor's value.
	g := int(m.trim * float64(ns))
	if g > (ns-1)/2 {
		g = (ns - 1) / 2
	}
	for c := range dsts {
		for d := range dsts[c] {
			vals := m.s.vals[:0]
			for j := 0; j < n; j++ {
				if m.s.ok[j] {
					vals = append(vals, comps[c][j][d])
				}
			}
			insertionSort(vals)
			sum := 0.0
			for _, v := range vals[g : ns-g] {
				sum += v
			}
			dsts[c][d] = sum / float64(ns-2*g)
			m.s.vals = vals
		}
	}
	if err := checkFiniteOutput("trimmed", dsts); err != nil {
		return Stats{}, err
	}
	return Stats{Participants: n, Rejected: m.s.rejected}, nil
}

type clipAgg struct {
	clip float64
	s    scratch
}

func (*clipAgg) Name() string { return "clip" }

func (m *clipAgg) Aggregate(dsts, prev []tensor.Vector, weights []float64, comps [][]tensor.Vector) (Stats, error) {
	if err := checkShape(dsts, prev, weights, comps); err != nil {
		return Stats{}, err
	}
	n := len(weights)
	m.s.reset(n)
	m.s.vecs(len(dsts[0]))
	m.s.rejectNonFinite(comps, n)
	// A reporter's deviation norm can still overflow to +Inf even when
	// every value is finite; reject those slots too (ascending merge
	// keeps Rejected sorted because both scans go in slot order).
	for j := 0; j < n; j++ {
		if !m.s.ok[j] {
			continue
		}
		for c := range comps {
			if err := m.s.dev.CopyFrom(comps[c][j]); err != nil {
				return Stats{}, err
			}
			if err := m.s.dev.Sub(prev[c]); err != nil {
				return Stats{}, err
			}
			if !m.s.dev.IsFinite() {
				m.s.ok[j] = false
				m.s.rejected = insertSorted(m.s.rejected, j)
				break
			}
		}
	}
	if m.s.survivors() == 0 {
		return Stats{}, fmt.Errorf("robust: clip: no finite reports in cohort of %d", n)
	}
	if err := m.s.renorm(weights); err != nil {
		return Stats{}, err
	}
	maxNorm := 0.0
	for c := range dsts {
		if err := dsts[c].CopyFrom(prev[c]); err != nil {
			return Stats{}, err
		}
	}
	wi := 0
	for j := 0; j < n; j++ {
		if !m.s.ok[j] {
			continue
		}
		w := m.s.w[wi]
		wi++
		clippedJ := false
		for c := range dsts {
			if err := m.s.dev.CopyFrom(comps[c][j]); err != nil {
				return Stats{}, err
			}
			if err := m.s.dev.Sub(prev[c]); err != nil {
				return Stats{}, err
			}
			norm := m.s.dev.Norm()
			scale := 1.0
			if norm > m.clip {
				scale = m.clip / norm
				clippedJ = true
				if norm > maxNorm {
					maxNorm = norm
				}
			}
			if err := dsts[c].AXPY(w*scale, m.s.dev); err != nil {
				return Stats{}, err
			}
		}
		if clippedJ {
			m.s.clipped = append(m.s.clipped, j)
		}
	}
	if err := checkFiniteOutput("clip", dsts); err != nil {
		return Stats{}, err
	}
	return Stats{Participants: n, Rejected: m.s.rejected, Clipped: m.s.clipped, MaxNorm: maxNorm}, nil
}

// insertSorted inserts j into ascending slice a (no duplicates expected).
func insertSorted(a []int, j int) []int {
	i := sort.SearchInts(a, j)
	a = append(a, 0)
	copy(a[i+1:], a[i:])
	a[i] = j
	return a
}

type cosineAgg struct {
	cosMin float64
	s      scratch
}

func (*cosineAgg) Name() string { return "cosine" }

func (m *cosineAgg) Aggregate(dsts, prev []tensor.Vector, weights []float64, comps [][]tensor.Vector) (Stats, error) {
	if err := checkShape(dsts, prev, weights, comps); err != nil {
		return Stats{}, err
	}
	n := len(weights)
	m.s.reset(n)
	m.s.vecs(len(dsts[0]))
	m.s.rejectNonFinite(comps, n)
	ns := m.s.survivors()
	if ns == 0 {
		return Stats{}, fmt.Errorf("robust: cosine: no finite reports in cohort of %d", n)
	}
	finiteRejected := len(m.s.rejected)
	// Reference direction: the coordinate-wise median deviation of the
	// primary component (the y stream at both tiers) from the previous
	// aggregate — the same direction signal core.EdgeCosine compares
	// gradient sums against, here applied across reporters. The median
	// (never a weighted mean) is the reference because a single
	// large-norm attacker would dominate a mean, flip the reference
	// toward itself, and get the honest majority rejected instead.
	for d := range m.s.mu {
		vals := m.s.vals[:0]
		for j := 0; j < n; j++ {
			if m.s.ok[j] {
				vals = append(vals, comps[0][j][d]-prev[0][d])
			}
		}
		insertionSort(vals)
		mid := ns / 2
		if ns%2 == 1 {
			m.s.mu[d] = vals[mid]
		} else {
			m.s.mu[d] = (vals[mid-1] + vals[mid]) / 2
		}
		m.s.vals = vals
	}
	for j := 0; j < n; j++ {
		if !m.s.ok[j] {
			continue
		}
		if err := m.s.dev.CopyFrom(comps[0][j]); err != nil {
			return Stats{}, err
		}
		if err := m.s.dev.Sub(prev[0]); err != nil {
			return Stats{}, err
		}
		// tensor.Cosine maps degenerate (zero-norm or overflowing)
		// pairs to 0, so a no-progress round only filters reporters
		// when CosMin > 0.
		cos, err := tensor.Cosine(m.s.dev, m.s.mu)
		if err != nil {
			return Stats{}, err
		}
		if cos < m.cosMin {
			m.s.ok[j] = false
		}
	}
	if m.s.survivors() == 0 {
		// The filter found no directional consensus (e.g. attackers are
		// the majority, or the mean itself was hijacked). Deterministic
		// fallback: keep every finite reporter rather than fail the
		// round — the filter degrades to plain mean, which the caller
		// can see via Rejected shrinking back.
		ri, rejected := 0, m.s.rejected[:finiteRejected]
		for j := 0; j < n; j++ {
			m.s.ok[j] = true
			if ri < len(rejected) && rejected[ri] == j {
				m.s.ok[j] = false
				ri++
			}
		}
	}
	// Rebuild the rejected list from the final mask so it stays sorted
	// regardless of which pass rejected each slot.
	m.s.rejected = m.s.rejected[:0]
	for j := 0; j < n; j++ {
		if !m.s.ok[j] {
			m.s.rejected = append(m.s.rejected, j)
		}
	}
	if err := m.s.renorm(weights); err != nil {
		return Stats{}, err
	}
	for c := range dsts {
		vs := m.s.vs[:0]
		for j := 0; j < n; j++ {
			if m.s.ok[j] {
				vs = append(vs, comps[c][j])
			}
		}
		m.s.vs = vs
		if err := tensor.WeightedSum(dsts[c], m.s.w, vs); err != nil {
			return Stats{}, err
		}
	}
	if err := checkFiniteOutput("cosine", dsts); err != nil {
		return Stats{}, err
	}
	return Stats{Participants: n, Rejected: m.s.rejected}, nil
}
