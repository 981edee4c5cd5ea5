// Package stats provides the small summary-statistics toolkit the reporting
// layer uses: means, percentiles, and distribution summaries of job metrics.
// Implemented here (rather than importing a dependency) because the module is
// stdlib-only.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary condenses a sample.
type Summary struct {
	N                  int
	Mean, Std          float64
	Min, P25, P50, P75 float64
	P90, P95, P99, Max float64
}

// Summarize computes a Summary. An empty sample yields the zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum, sq := 0.0, 0.0
	for _, x := range s {
		sum += x
		sq += x * x
	}
	n := float64(len(s))
	mean := sum / n
	variance := sq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Summary{
		N:    len(s),
		Mean: mean,
		Std:  math.Sqrt(variance),
		Min:  s[0],
		P25:  Percentile(s, 25),
		P50:  Percentile(s, 50),
		P75:  Percentile(s, 75),
		P90:  Percentile(s, 90),
		P95:  Percentile(s, 95),
		P99:  Percentile(s, 99),
		Max:  s[len(s)-1],
	}
}

// Percentile returns the p-th percentile (0..100) of a sorted sample using
// linear interpolation between closest ranks. It panics if the sample is
// unsorted in debug-worthy ways only (it trusts the caller); an empty sample
// returns 0.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Quantiles returns the requested quantiles (each in [0, 1]) of an unsorted
// sample, in the order asked. An empty sample yields zeros. The server's
// /metrics endpoint uses it for scheduling-latency gauges.
func Quantiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		return out
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for i, q := range qs {
		out[i] = Percentile(s, q*100)
	}
	return out
}

// String renders a compact one-line summary.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g p50=%.4g p95=%.4g max=%.4g",
		s.N, s.Mean, s.Std, s.Min, s.P50, s.P95, s.Max)
}
