// Package metrics provides the summary statistics the experiment harness
// reports over repeated seeded runs: mean, sample standard deviation and
// extremes (the "± std" the paper's Table II reports).
package metrics

import (
	"errors"
	"fmt"
	"math"
)

// ErrEmpty is returned when a statistic needs at least one observation.
var ErrEmpty = errors.New("metrics: no observations")

// Summary is the mean and sample standard deviation of a set of
// observations, plus their extremes.
type Summary struct {
	N         int
	Mean, Std float64
	Min, Max  float64
}

// Summarize computes a Summary over xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	// Welford's online algorithm: overflow-resistant and single-pass.
	var m2 float64
	for i, x := range xs {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		d := x - s.Mean
		s.Mean += d / float64(i+1)
		m2 += d * (x - s.Mean)
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(m2 / float64(len(xs)-1))
	}
	return s, nil
}

// String renders "mean ± std" with percent-style precision, matching the
// paper's Table II cells.
func (s Summary) String() string {
	if s.N <= 1 {
		return fmt.Sprintf("%.2f", s.Mean)
	}
	return fmt.Sprintf("%.2f ± %.2f", s.Mean, s.Std)
}
