package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// now is the benchmark's only clock read.
func now() time.Time {
	return time.Now() //flvet:allow detwall -- benchmark wall-clock timing
}

// since returns the seconds elapsed after t.
func since(t time.Time) float64 { return now().Sub(t).Seconds() }

// usage is a snapshot of the process counters a rep is billed from.
type usage struct {
	cpu     float64 // user+sys seconds (getrusage)
	alloc   uint64  // MemStats.TotalAlloc
	mallocs uint64  // MemStats.Mallocs
	gcs     uint32  // MemStats.NumGC
	pauseNs uint64  // MemStats.PauseTotalNs
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u := usage{alloc: ms.TotalAlloc, mallocs: ms.Mallocs, gcs: ms.NumGC, pauseNs: ms.PauseTotalNs}
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer; a zero
	// reading would surface as a zero cpu_s, which the output check rejects.
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	}
	return u
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// median returns the middle of v (mean of the middle pair for even counts);
// NaN for an empty slice, so a metric that was never sampled fails the
// output check instead of reading as 0.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), which is the
// rule the benchmark's acceptance check applies to run-to-run spread.
func quartiles(v []float64) (q1, q3 float64) {
	switch len(v) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return v[0], v[0]
	}
	s := sorted(v)
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// percentile returns the p-quantile (0..1) of v by linear interpolation.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// summary is a metric's distribution over the reps of one run.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

func summarize(v []float64, unit string) summary {
	q1, q3 := quartiles(v)
	return summary{Median: median(v), Q1: q1, Q3: q3, N: len(v), Unit: unit}
}

// spread is the inter-quartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}
