package server

import (
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/ingest"
)

// retryAfterLane builds a bare lane with a batcher holding depth queued
// ops and the given measured drain rate, without starting the engine
// goroutine — retryAfterSeconds reads only those two inputs.
func retryAfterLane(t *testing.T, queueCap, depth int, rate float64) *lane {
	t.Helper()
	s := &lane{batcher: ingest.NewBatcher(queueCap, 16)}
	for i := 0; i < depth; i++ {
		if _, err := s.batcher.Enqueue(&ingest.Op{Kind: ingest.Cancel, ID: int64(i)}); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	s.drainRate.Store(math.Float64bits(rate))
	return s
}

func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		name  string
		depth int
		rate  float64
		want  int
	}{
		// No drain observed yet: nothing to extrapolate, conservative 1.
		{"no-rate", 100, 0, 1},
		// Queue turns over in well under a second: hint 0, retry now. This
		// is the microsecond-drain case the hardcoded 1 punished.
		{"fast-drain", 100, 100000, 0},
		{"sub-second", 900, 1000, 0},
		// Predicted drain >= 1s rounds up to whole seconds (RFC 9110
		// delta-seconds are integral).
		{"one-second", 1000, 1000, 1},
		{"round-up", 1500, 1000, 2},
		{"deep-backlog", 10000, 100, 60}, // capped at maxRetryAfter
		{"empty-queue", 0, 1000, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := retryAfterLane(t, c.depth+1, c.depth, c.rate)
			if got := s.retryAfterSeconds(); got != c.want {
				t.Fatalf("depth=%d rate=%g: Retry-After = %d, want %d", c.depth, c.rate, got, c.want)
			}
		})
	}
}

// TestWriteIngestErrorRetryAfterHeader pins the full header path: a full
// lane's enqueue answers 429 with the hint worked out from that lane's drain
// rate, and a closed queue answers 503 without one.
func TestWriteIngestErrorRetryAfterHeader(t *testing.T) {
	s := retryAfterLane(t, 1500, 1500, 1000)
	_, err := s.enqueue(&ingest.Op{Kind: ingest.Cancel, ID: 1500})
	rec := httptest.NewRecorder()
	writeFailure(rec, err)
	if rec.Code != 429 {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", got)
	}

	rec = httptest.NewRecorder()
	writeFailure(rec, ingest.ErrClosed)
	if rec.Code != 503 {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "" {
		t.Fatalf("503 must not carry Retry-After, got %q", got)
	}
}

// TestObserveDrainEWMA pins the rate estimator: the first window seeds the
// EWMA, later windows fold in at 0.2, and a zero-elapsed window is skipped
// rather than dividing by zero.
func TestObserveDrainEWMA(t *testing.T) {
	s := &lane{}
	s.lastDrainEnd = time.Now().Add(-100 * time.Millisecond)
	s.observeDrain(100) // ~1000 ops/sec over ~100ms
	first := math.Float64frombits(s.drainRate.Load())
	if first < 500 || first > 2000 {
		t.Fatalf("seed rate = %g, want ~1000", first)
	}
	s.lastDrainEnd = time.Now().Add(-100 * time.Millisecond)
	s.observeDrain(1000) // ~10000 ops/sec sample
	second := math.Float64frombits(s.drainRate.Load())
	if second <= first {
		t.Fatalf("EWMA must move toward a faster sample: %g -> %g", first, second)
	}
	if second > 0.5*10000 {
		t.Fatalf("EWMA moved too far for one 0.2-weight sample: %g", second)
	}
}
