package metrics

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 8 || s.Mean != 5 {
		t.Errorf("summary %+v", s)
	}
	// Sample std of this classic set is ~2.138.
	if math.Abs(s.Std-2.1380899) > 1e-6 {
		t.Errorf("std = %v", s.Std)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("min/max %v/%v", s.Min, s.Max)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("err = %v", err)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s, err := Summarize([]float64{3})
	if err != nil {
		t.Fatal(err)
	}
	if s.Std != 0 || s.Mean != 3 {
		t.Errorf("single summary %+v", s)
	}
	if strings.Contains(s.String(), "±") {
		t.Errorf("single-run String %q should not show ±", s.String())
	}
}

func TestSummaryString(t *testing.T) {
	s, err := Summarize([]float64{80, 90})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s.String(), "±") {
		t.Errorf("String %q missing ±", s.String())
	}
}

func TestSummarizeMeanBounds(t *testing.T) {
	// Property: min ≤ mean ≤ max. Inputs whose spread approaches the
	// float64 range are skipped: x − mean legitimately overflows there, and
	// the statistic is meaningless at such magnitudes.
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > math.MaxFloat64/4 {
				return true
			}
		}
		s, err := Summarize(xs)
		if errors.Is(err, ErrEmpty) {
			return true
		}
		return s.Min <= s.Mean+1e-9*math.Abs(s.Mean)+1e-9 &&
			s.Mean <= s.Max+1e-9*math.Abs(s.Max)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
