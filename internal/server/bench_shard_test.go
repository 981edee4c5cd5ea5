package server

// BenchmarkShardedSubmitThroughput measures sustained batch-submit
// throughput through the gateway at 1, 2, and 4 shards on a radix-32 tree
// (8192 nodes, 32 pods). One op = one job accepted; every job is
// single-shard sized so the gateway routes it to a lane and the per-shard
// engines drain in parallel. shards=1 is the same gateway over one lane, the
// no-regression reference for the submit path.
//
// Recorded in BENCH_8.json; see EXPERIMENTS.md. On a single-CPU host the
// shard goroutines time-slice one core, so the >=2.5x parallel-speedup
// target is only observable on multi-core hardware — the numbers stay
// meaningful as a routing/rendezvous overhead measurement.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

func benchmarkShardedSubmit(b *testing.B, shards int) {
	s, err := New(Config{
		Alloc:        core.NewAllocator(topology.MustNew(32)), // 8192 nodes
		VirtualClock: true,
		Shards:       shards,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()

	const batch = 16
	items := make([]string, batch)
	for i := range items {
		items[i] = `{"size":4,"runtime":10}`
	}
	body := `{"jobs":[` + strings.Join(items, ",") + `]}`

	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := httptest.NewRequest(http.MethodPost, "/v1/jobs:batch", strings.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusAccepted && rec.Code != http.StatusTooManyRequests {
				b.Fatalf("submit status %d", rec.Code)
			}
			// Skip ahead past the amortized jobs so ns/op means per job.
			for i := 1; i < batch && pb.Next(); i++ {
			}
		}
	})
}

func BenchmarkShardedSubmitThroughput(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			benchmarkShardedSubmit(b, n)
		})
	}
}
