package server

// BenchmarkQueueRead pins the RCU read path's headline property: GET
// /v1/queue latency is independent of write load, because reads are served
// from the published snapshot and never rendezvous with the engine
// goroutine. Compare the reported p50/p99 between the idle and loaded
// variants:
//
//	go test ./internal/server/ -bench QueueRead -run xxx

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/topology"
)

func benchmarkQueueRead(b *testing.B, writeLoad bool) {
	s, err := New(Config{
		Alloc:        core.NewAllocator(topology.MustNew(8)), // 256 nodes
		VirtualClock: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()

	stop := make(chan struct{})
	var writers sync.WaitGroup
	if writeLoad {
		// Background submit storm through the same in-process handler. 429s
		// are expected once the ingest queue fills; the writers just keep
		// pushing so the engine goroutine is continuously busy draining.
		for g := 0; g < 4; g++ {
			writers.Add(1)
			go func(g int) {
				defer writers.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				for {
					select {
					case <-stop:
						return
					default:
					}
					body := fmt.Sprintf(`{"size":%d,"runtime":%g}`, 1+rng.Intn(64), 0.5+rng.Float64()*10)
					req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body))
					h.ServeHTTP(httptest.NewRecorder(), req)
				}
			}(g)
		}
	}

	lat := make([]float64, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, "/v1/queue", nil)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		lat = append(lat, time.Since(t0).Seconds())
		if rec.Code != http.StatusOK {
			b.Fatalf("queue read status %d", rec.Code)
		}
	}
	b.StopTimer()
	close(stop)
	writers.Wait()

	sort.Float64s(lat)
	b.ReportMetric(stats.Percentile(lat, 50)*1e9, "p50-ns")
	b.ReportMetric(stats.Percentile(lat, 99)*1e9, "p99-ns")
}

func BenchmarkQueueReadIdle(b *testing.B)            { benchmarkQueueRead(b, false) }
func BenchmarkQueueReadUnderSubmitLoad(b *testing.B) { benchmarkQueueRead(b, true) }

// BenchmarkSubmitThroughput measures sustained submit throughput through
// the full HTTP handler stack with many concurrent clients: ns/op here is
// the inverse of the daemon's job-ingest rate (one op = one job accepted).
// The batch=16 variant amortizes HTTP and queue rendezvous across 16 jobs
// per request, which is how the benchmark/ workloads reach engine-bound
// throughput.
func benchmarkSubmitThroughput(b *testing.B, batch int) {
	s, err := New(Config{
		Alloc:        core.NewAllocator(topology.MustNew(8)), // 256 nodes
		VirtualClock: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()

	var body, path string
	if batch == 1 {
		path, body = "/v1/jobs", `{"size":4,"runtime":10}`
	} else {
		items := make([]string, batch)
		for i := range items {
			items[i] = `{"size":4,"runtime":10}`
		}
		path, body = "/v1/jobs:batch", `{"jobs":[`+strings.Join(items, ",")+`]}`
	}

	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
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

func BenchmarkSubmitThroughputSingle(b *testing.B)  { benchmarkSubmitThroughput(b, 1) }
func BenchmarkSubmitThroughputBatch16(b *testing.B) { benchmarkSubmitThroughput(b, 16) }
