// Package tensor provides the dense linear-algebra primitives shared by the
// whole repository: flat float64 vectors for model parameters and momenta,
// and small dense matrices for neural-network layers.
//
// Everything operates on plain slices so callers can alias sub-ranges of a
// flat parameter vector without copies; functions that write results take the
// destination explicitly, following the BLAS convention.
package tensor

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimMismatch is returned (or wrapped) by operations whose operands have
// incompatible lengths.
var ErrDimMismatch = errors.New("tensor: dimension mismatch")

// Vector is a dense vector of float64 values. A nil Vector is a valid
// zero-length vector.
type Vector []float64

// NewVector returns a zero-initialized vector of length n.
func NewVector(n int) Vector {
	return make(Vector, n)
}

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	if v == nil {
		return nil
	}
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// CopyFrom copies src into v. The lengths must match.
func (v Vector) CopyFrom(src Vector) error {
	if len(v) != len(src) {
		return fmt.Errorf("copy %d <- %d: %w", len(v), len(src), ErrDimMismatch)
	}
	copy(v, src)
	return nil
}

// Zero sets every element of v to 0.
func (v Vector) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// Fill sets every element of v to c.
func (v Vector) Fill(c float64) {
	for i := range v {
		v[i] = c
	}
}

// Add accumulates u into v element-wise (v += u). Panics are avoided by
// truncating to the shorter operand being a programming error: lengths must
// match.
func (v Vector) Add(u Vector) error {
	if len(v) != len(u) {
		return fmt.Errorf("add %d + %d: %w", len(v), len(u), ErrDimMismatch)
	}
	for i, x := range u {
		v[i] += x
	}
	return nil
}

// Sub subtracts u from v element-wise (v -= u).
func (v Vector) Sub(u Vector) error {
	if len(v) != len(u) {
		return fmt.Errorf("sub %d - %d: %w", len(v), len(u), ErrDimMismatch)
	}
	for i, x := range u {
		v[i] -= x
	}
	return nil
}

// Scale multiplies every element of v by c.
func (v Vector) Scale(c float64) {
	for i := range v {
		v[i] *= c
	}
}

// AXPY computes v += a*u, the BLAS axpy kernel.
func (v Vector) AXPY(a float64, u Vector) error {
	if len(v) != len(u) {
		return fmt.Errorf("axpy %d += a*%d: %w", len(v), len(u), ErrDimMismatch)
	}
	for i, x := range u {
		v[i] += a * x
	}
	return nil
}

// Dot returns the inner product of v and u.
func Dot(v, u Vector) (float64, error) {
	if len(v) != len(u) {
		return 0, fmt.Errorf("dot %d . %d: %w", len(v), len(u), ErrDimMismatch)
	}
	var s float64
	for i, x := range v {
		s += x * u[i]
	}
	return s, nil
}

// Norm returns the Euclidean (L2) norm of v.
func (v Vector) Norm() float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// NormSq returns the squared Euclidean norm of v.
func (v Vector) NormSq() float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return s
}

// Cosine returns the cosine of the angle between v and u. If either vector
// has (near-)zero norm the cosine is defined as 0, which callers in the
// adaptive-momentum code treat as "no usable signal".
func Cosine(v, u Vector) (float64, error) {
	dot, err := Dot(v, u)
	if err != nil {
		return 0, err
	}
	return cosineFromDot(dot, v.Norm(), u.Norm()), nil
}

// NegCosine returns the cosine of the angle between −v and u, with the same
// zero-norm and non-finite guards as Cosine. IEEE negation is exact and
// distributes over products and sums, so the result is bit-identical to
// Cosine applied to a materialized negated copy — without the allocation.
func NegCosine(v, u Vector) (float64, error) {
	dot, err := Dot(v, u)
	if err != nil {
		return 0, err
	}
	return cosineFromDot(-dot, v.Norm(), u.Norm()), nil
}

// cosineFromDot finishes a cosine from its reduced pieces, mapping
// degenerate inputs to 0 and clamping drift into [-1, 1].
func cosineFromDot(dot, nv, nu float64) float64 {
	const eps = 1e-30
	if nv < eps || nu < eps {
		return 0
	}
	c := dot / nv / nu
	// Overflowing norms or dot products yield non-finite intermediates;
	// treat them, like zero vectors, as "no usable signal".
	if math.IsNaN(c) || math.IsInf(c, 0) {
		return 0
	}
	// Guard against floating-point drift outside [-1, 1].
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return c
}

// Dist returns the Euclidean distance between v and u.
func Dist(v, u Vector) (float64, error) {
	if len(v) != len(u) {
		return 0, fmt.Errorf("dist %d vs %d: %w", len(v), len(u), ErrDimMismatch)
	}
	var s float64
	for i, x := range v {
		d := x - u[i]
		s += d * d
	}
	return math.Sqrt(s), nil
}

// WeightedSum overwrites dst with the weighted sum Σ weights[j]*vs[j] in one
// pass: per element an accumulator starts at +0 and adds the terms for j
// ascending — the sequence a Zero followed by one AXPY per term performs.
// Every vector must have the same length as dst, and len(weights) must equal
// len(vs); both are checked before the first write, so a failed call leaves
// dst as it was.
func WeightedSum(dst Vector, weights []float64, vs []Vector) error {
	if len(weights) != len(vs) {
		return fmt.Errorf("weighted sum: %d weights for %d vectors: %w",
			len(weights), len(vs), ErrDimMismatch)
	}
	for j, v := range vs {
		if len(v) != len(dst) {
			return fmt.Errorf("weighted sum term %d: %d += a*%d: %w", j, len(dst), len(v), ErrDimMismatch)
		}
	}
	// Four elements per step: four independent accumulators hide the add
	// latency of the j chain and amortize each term's slice header.
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		var acc0, acc1, acc2, acc3 float64
		for j, v := range vs {
			w := weights[j]
			q := v[i : i+4 : i+4]
			acc0 += w * q[0]
			acc1 += w * q[1]
			acc2 += w * q[2]
			acc3 += w * q[3]
		}
		d := dst[i : i+4 : i+4]
		d[0], d[1], d[2], d[3] = acc0, acc1, acc2, acc3
	}
	for ; i < len(dst); i++ {
		var acc float64
		for j, v := range vs {
			acc += weights[j] * v[i]
		}
		dst[i] = acc
	}
	return nil
}

// Lerp overwrites dst with (1-t)*a + t*b.
func Lerp(dst Vector, a, b Vector, t float64) error {
	if len(dst) != len(a) || len(dst) != len(b) {
		return fmt.Errorf("lerp %d/%d/%d: %w", len(dst), len(a), len(b), ErrDimMismatch)
	}
	for i := range dst {
		dst[i] = (1-t)*a[i] + t*b[i]
	}
	return nil
}

// MaxAbs returns the largest absolute element value, or 0 for an empty vector.
func (v Vector) MaxAbs() float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// IsFinite reports whether every element of v is neither NaN nor Inf.
func (v Vector) IsFinite() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// ArgMax returns the index of the largest element, or -1 for an empty vector.
// Ties resolve to the lowest index.
func (v Vector) ArgMax() int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}
