package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/topology"
)

// heapAfterGC collects twice (the second cycle frees what the first one's
// finalizers and sweep released) and returns the bytes the collector has to
// scan and the bytes allocated.
func heapAfterGC() (scan, alloc uint64) {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return s[0].Value.Uint64(), ms.HeapAlloc
}

// TestFinishedJobsAreNotScanned is the short form of the soak gate: the heap
// the garbage collector walks must not grow with the number of jobs the
// daemon has finished. It runs 20 000 and then 200 000 jobs to completion
// through the batch handler and compares what is left after a collection.
func TestFinishedJobsAreNotScanned(t *testing.T) {
	const (
		batch = 250
		// A finished job costs one ledger slot (8-byte key, 104-byte record,
		// at the map's load factor) per engine it ran on, plus one owner-map
		// slot when sharded.
		maxBytesPerJob = 320
	)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, err := New(Config{
				Alloc:        core.NewAllocator(topology.MustNew(16)),
				VirtualClock: true,
				Shards:       shards,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			h := s.Handler()
			var body bytes.Buffer
			body.WriteString(`{"jobs":[`)
			for i := 0; i < batch; i++ {
				if i > 0 {
					body.WriteByte(',')
				}
				fmt.Fprintf(&body, `{"size":%d,"runtime":60}`, 1+i%32)
			}
			body.WriteString(`]}`)
			// A virtual-clock lane publishes when it has stepped through every
			// event, so the (merged) snapshot says when all lanes are idle.
			waitIdle := func() {
				t.Helper()
				for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
					if v := s.view().Snap; v.PendingEvents == 0 && v.QueueDepth == 0 && v.RunningJobs == 0 {
						return
					}
					if time.Now().After(deadline) {
						t.Fatalf("never went idle: %+v", s.view().Snap.Counts)
					}
				}
			}
			// The active set is drained after every batch, so its high-water
			// mark — which Go's maps and slices keep allocated, scannable — is
			// one batch, the same after 20 000 jobs as after 200 000.
			finished := 0
			runTo := func(total int) {
				t.Helper()
				for finished < total {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs:batch", bytes.NewReader(body.Bytes())))
					if rec.Code != http.StatusAccepted {
						t.Fatalf("batch after %d jobs: %d %s", finished, rec.Code, rec.Body)
					}
					finished += batch
					waitIdle()
				}
				if c := s.view().Snap.Counts; c.Completed != int64(total) {
					t.Fatalf("%d jobs completed, want %d", c.Completed, total)
				}
			}

			runTo(20_000)
			scan1, alloc1 := heapAfterGC()
			goroutines1 := runtime.NumGoroutine()
			runTo(200_000)
			scan2, alloc2 := heapAfterGC()

			t.Logf("scannable heap %d -> %d bytes, allocated heap %d -> %d bytes (%.0f per job)",
				scan1, scan2, alloc1, alloc2, float64(alloc2-alloc1)/180_000)
			if float64(scan2) > 1.5*float64(scan1) {
				t.Errorf("scannable heap grew from %d to %d bytes (%.1fx) over 180 000 finished jobs; want at most 1.5x",
					scan1, scan2, float64(scan2)/float64(scan1))
			}
			if alloc2 > alloc1 && (alloc2-alloc1)/180_000 > maxBytesPerJob {
				t.Errorf("allocated heap grew %d bytes per finished job; want at most %d", (alloc2-alloc1)/180_000, maxBytesPerJob)
			}
			if g := runtime.NumGoroutine(); g != goroutines1 {
				t.Errorf("%d goroutines after 200 000 jobs, %d after 20 000", g, goroutines1)
			}
		})
	}
}
