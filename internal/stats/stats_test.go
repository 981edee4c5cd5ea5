package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSummarizeKnownSample(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Fatalf("bad summary: %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2)) > 1e-12 {
		t.Fatalf("std = %g", s.Std)
	}
}

func TestSummarizeEmptyAndSingleton(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatal("empty sample should be zero summary")
	}
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.P95 != 7 || s.Std != 0 {
		t.Fatalf("singleton summary wrong: %+v", s)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	sorted := []float64{0, 10}
	if got := Percentile(sorted, 50); got != 5 {
		t.Fatalf("p50 = %g", got)
	}
	if Percentile(sorted, 0) != 0 || Percentile(sorted, 100) != 10 {
		t.Fatal("extremes wrong")
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		s := Summarize(xs)
		ps := []float64{s.Min, s.P25, s.P50, s.P75, s.P90, s.P95, s.P99, s.Max}
		for i := 1; i < len(ps); i++ {
			if ps[i] < ps[i-1]-1e-9 {
				return false
			}
		}
		return s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
