package server

// The concurrency test: many goroutines submit, cancel, and query against a
// small tree through the public HTTP surface while the virtual-clock loop
// fast-forwards completions underneath them. Run with -race (CI does); the
// assertions check that no job is lost and node accounting is conserved.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/snapshot"
	"repro/internal/topology"
)

func TestConcurrentSubmitCancelQuery(t *testing.T) {
	s, err := New(Config{
		Alloc:        core.NewAllocator(topology.MustNew(4)), // 16 nodes
		VirtualClock: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer func() {
		hs.Close()
		s.Close()
	}()

	const (
		goroutines = 8
		jobsEach   = 40
	)
	var submitted, cancelReqs atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			client := hs.Client()
			for i := 0; i < jobsEach; i++ {
				size := 1 + rng.Intn(12)
				body := fmt.Sprintf(`{"size":%d,"runtime":%g}`, size, 0.5+rng.Float64()*5)
				resp, err := client.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var j jobJSON
				dec := json.NewDecoder(resp.Body)
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("submit status %d", resp.StatusCode)
					resp.Body.Close()
					return
				}
				if err := dec.Decode(&j); err != nil {
					t.Error(err)
					resp.Body.Close()
					return
				}
				resp.Body.Close()
				submitted.Add(1)

				switch i % 4 {
				case 1:
					// Query our job; it must exist in some lifecycle state.
					r2, err := client.Get(fmt.Sprintf("%s/v1/jobs/%d", hs.URL, j.ID))
					if err != nil {
						t.Error(err)
						return
					}
					if r2.StatusCode != http.StatusOK {
						t.Errorf("lost job %d: status %d", j.ID, r2.StatusCode)
					}
					r2.Body.Close()
				case 2:
					// Try to cancel; 200 (still alive) and 409 (already
					// done) are both legal under the race.
					req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%d", hs.URL, j.ID), nil)
					r2, err := client.Do(req)
					if err != nil {
						t.Error(err)
						return
					}
					if r2.StatusCode != http.StatusOK && r2.StatusCode != http.StatusConflict {
						t.Errorf("cancel job %d: status %d", j.ID, r2.StatusCode)
					}
					r2.Body.Close()
					cancelReqs.Add(1)
				case 3:
					// Exercise the read-only surfaces concurrently.
					for _, p := range []string{"/v1/queue", "/v1/cluster", "/metrics"} {
						r2, err := client.Get(hs.URL + p)
						if err != nil {
							t.Error(err)
							return
						}
						r2.Body.Close()
					}
				}
			}
		}(g)
	}
	wg.Wait()

	c := waitDrained(t, hs.URL)
	want := submitted.Load()
	if c.Counts["submitted"] != want {
		t.Fatalf("submitted count %d, want %d", c.Counts["submitted"], want)
	}
	if got := c.Counts["completed"] + c.Counts["rejected"] + c.Counts["cancelled"]; got != want {
		t.Fatalf("lost jobs: completed+rejected+cancelled = %d, submitted = %d (%+v)", got, want, c.Counts)
	}
	if c.Counts["rejected"] != 0 {
		t.Fatalf("no job exceeds the machine, yet %d rejected", c.Counts["rejected"])
	}
	if c.UsedNodes != 0 || c.FreeNodes != c.Nodes {
		t.Fatalf("node accounting not conserved after drain: %+v", c)
	}

	// Every job is still addressable and in a terminal state.
	for id := int64(1); id <= want; id++ {
		var j jobJSON
		if code := getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", hs.URL, id), &j); code != http.StatusOK {
			t.Fatalf("job %d unaddressable: %d", id, code)
		}
		if j.State != "completed" && j.State != "cancelled" {
			t.Fatalf("job %d in non-terminal state %q after drain", id, j.State)
		}
	}
}

// TestConcurrentBatchFailRecoverSnapshotInvariants is the stress test for
// the batched front door: batch and single submits, cancels, and
// fail/recover cycles race against snapshot readers that check every loaded
// view for internal consistency, monotone publication order and running
// jobs inside their declared bounds. Run with -race (CI does).
//
// The elastic input is the deadline/admission surface under load: a
// wall-clock elastic daemon that shrinks failure-hit malleable jobs behind a
// bounded ingest queue, fed batches of 16 short jobs of which about 30 %
// declare min_nodes ceil(size/2), max_nodes min(2·size, cluster) and
// priority 0 or 1. Writers pause between requests so the queue drains
// between bursts and running malleable jobs get room to grow. Every write
// must be answered as usual or 429 with a Retry-After, and the run must
// grow, shrink or preempt something.
func TestConcurrentBatchFailRecoverSnapshotInvariants(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     Config
		rounds  int           // submit requests per writer; every third is a batch
		batch   int           // jobs per batch
		runtime [2]float64    // runtimes are uniform in [runtime[0], runtime[1])
		elastic float64       // share of jobs sent with malleable bounds and a priority
		pause   time.Duration // between a writer's requests
	}{
		{name: "virtual", cfg: Config{VirtualClock: true},
			rounds: 30, batch: 3, runtime: [2]float64{0.5, 3.5}},
		{name: "elastic", cfg: Config{Elastic: true, OnFailure: engine.FailShrink, ingestQueue: 32},
			rounds: 24, batch: 16, runtime: [2]float64{0.0005, 0.002}, elastic: 0.3, pause: 20 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Alloc = core.NewAllocator(topology.MustNew(4)) // 16 nodes, 8 leaves of 2
			s, hs := newTestServer(t, tc.cfg)
			nodes := tc.cfg.Alloc.Tree().Nodes()
			// Only a bounded ingest queue may shed a write.
			shed := tc.cfg.ingestQueue > 0

			var accepted, sheds atomic.Int64
			// answered checks one write's status: one of want, or 429 with a
			// usable Retry-After where the ingest queue is bounded. in reports
			// a status from want; ok is false on any other answer.
			answered := func(resp *http.Response, what string, want ...int) (in, ok bool) {
				switch {
				case slices.Contains(want, resp.StatusCode):
					return true, true
				case shed && resp.StatusCode == http.StatusTooManyRequests:
					if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 0 {
						t.Errorf("%s: 429 with Retry-After %q", what, resp.Header.Get("Retry-After"))
						return false, false
					}
					sheds.Add(1)
					return false, true
				}
				t.Errorf("%s: status %d", what, resp.StatusCode)
				return false, false
			}
			// job draws one submit body. Sizes stay <= 12 so every job fits
			// even with one leaf switch (2 nodes) failed: nothing is ever
			// rejected for capacity.
			job := func(rng *rand.Rand) string {
				size := 1 + rng.Intn(12)
				rt := tc.runtime[0] + rng.Float64()*(tc.runtime[1]-tc.runtime[0])
				if tc.elastic == 0 || rng.Float64() >= tc.elastic {
					return fmt.Sprintf(`{"size":%d,"runtime":%g}`, size, rt)
				}
				return fmt.Sprintf(`{"size":%d,"runtime":%g,"min_nodes":%d,"max_nodes":%d,"priority":%d}`,
					size, rt, (size+1)/2, min(2*size, nodes), rng.Intn(2))
			}

			// Submitters: batches interleaved with single submits and
			// occasional cancels.
			var submitters sync.WaitGroup
			for g := 0; g < 4; g++ {
				submitters.Add(1)
				go func(g int) {
					defer submitters.Done()
					rng := rand.New(rand.NewSource(int64(1000 + g)))
					client := hs.Client()
					for i := 0; i < tc.rounds; i++ {
						time.Sleep(tc.pause)
						if i%3 == 0 {
							var items []string
							for k := 0; k < tc.batch; k++ {
								items = append(items, job(rng))
							}
							resp, err := client.Post(hs.URL+"/v1/jobs:batch", "application/json",
								strings.NewReader(`{"jobs":[`+strings.Join(items, ",")+`]}`))
							if err != nil {
								t.Error(err)
								return
							}
							var br struct {
								Accepted int `json:"accepted"`
								Results  []struct {
									ID    int64  `json:"id"`
									Error string `json:"error"`
								} `json:"results"`
							}
							in, ok := answered(resp, "batch", http.StatusAccepted)
							if in {
								json.NewDecoder(resp.Body).Decode(&br)
							}
							resp.Body.Close()
							if !ok {
								return
							}
							if !in {
								continue
							}
							accepted.Add(int64(br.Accepted))
							if br.Accepted != tc.batch {
								t.Errorf("batch rejected items: %+v", br)
								return
							}
							if i%6 == 0 && len(br.Results) > 0 {
								// Cancel one of our own: 200 (alive) or 409
								// (already terminal) are both legal under the
								// race.
								req, _ := http.NewRequest(http.MethodDelete,
									fmt.Sprintf("%s/v1/jobs/%d", hs.URL, br.Results[0].ID), nil)
								r2, err := client.Do(req)
								if err != nil {
									t.Error(err)
									return
								}
								_, ok := answered(r2, "cancel", http.StatusOK, http.StatusConflict)
								r2.Body.Close()
								if !ok {
									return
								}
							}
						} else {
							resp, err := client.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(job(rng)))
							if err != nil {
								t.Error(err)
								return
							}
							in, ok := answered(resp, "submit", http.StatusAccepted)
							resp.Body.Close()
							if !ok {
								return
							}
							if in {
								accepted.Add(1)
							}
						}
					}
				}(g)
			}
			submitting := make(chan struct{})
			go func() {
				submitters.Wait()
				close(submitting)
			}()

			// Failer: strict fail->recover cycles on random leaf switches,
			// at least 12 and until the submitters are done, a tenth of the
			// writers' pause apart. Each admin mutation runs serialized on
			// the engine goroutine, so with one failer every request must
			// succeed; running jobs hit by the failure are requeued (or
			// shrunk, under the shrink policy) and the conservation check
			// below still holds. An admin request publishes before it
			// answers, so the View loaded right after shows what the failure
			// or the recovery did.
			var failer sync.WaitGroup
			failer.Add(1)
			go func() {
				defer failer.Done()
				rng := rand.New(rand.NewSource(42))
				client := hs.Client()
				for i := 0; ; i++ {
					if i >= 12 {
						select {
						case <-submitting:
							return
						default:
						}
					}
					time.Sleep(tc.pause / 10)
					body := fmt.Sprintf(`{"kind":"leaf-switch","leaf":%d}`, rng.Intn(4))
					for _, path := range []string{"/v1/fail", "/v1/recover"} {
						resp, err := client.Post(hs.URL+path, "application/json", strings.NewReader(body))
						if err != nil {
							t.Error(err)
							return
						}
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							t.Errorf("%s: status %d", path, resp.StatusCode)
							return
						}
						if err := outOfBounds(s.view()); err != nil {
							t.Errorf("after %s: %v", path, err)
							return
						}
					}
				}
			}()

			// Readers: every loaded view must be internally consistent, the
			// publication sequence and fabric state version must be
			// monotone, and every running job must sit inside its bounds.
			stopReaders := make(chan struct{})
			var readers sync.WaitGroup
			for r := 0; r < 2; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					client := hs.Client()
					var lastSeq, lastVersion uint64
					for {
						select {
						case <-stopReaders:
							return
						default:
						}
						if err := outOfBounds(s.view()); err != nil {
							t.Error(err)
							return
						}
						var q struct {
							Depth int       `json:"depth"`
							Jobs  []jobJSON `json:"jobs"`
							Seq   uint64    `json:"snapshot_seq"`
						}
						resp, err := client.Get(hs.URL + "/v1/queue")
						if err != nil {
							t.Error(err)
							return
						}
						json.NewDecoder(resp.Body).Decode(&q)
						resp.Body.Close()
						if len(q.Jobs) != q.Depth {
							t.Errorf("inconsistent queue view: %d jobs, depth %d", len(q.Jobs), q.Depth)
							return
						}
						if q.Seq < lastSeq {
							t.Errorf("snapshot_seq went backwards: %d after %d", q.Seq, lastSeq)
							return
						}
						lastSeq = q.Seq

						var c struct {
							clusterJSON
							StateVersion uint64 `json:"state_version"`
						}
						resp, err = client.Get(hs.URL + "/v1/cluster")
						if err != nil {
							t.Error(err)
							return
						}
						json.NewDecoder(resp.Body).Decode(&c)
						resp.Body.Close()
						if c.StateVersion < lastVersion {
							t.Errorf("state_version went backwards: %d after %d", c.StateVersion, lastVersion)
							return
						}
						lastVersion = c.StateVersion
						if done := c.Counts["completed"] + c.Counts["rejected"] + c.Counts["cancelled"]; done > c.Counts["submitted"] {
							t.Errorf("view counts inconsistent: %d terminal > %d submitted", done, c.Counts["submitted"])
							return
						}
					}
				}()
			}

			<-submitting
			failer.Wait()
			close(stopReaders)
			readers.Wait()

			c := waitDrained(t, hs.URL)
			want := accepted.Load()
			if c.Counts["submitted"] != want {
				t.Fatalf("submitted count %d, want %d", c.Counts["submitted"], want)
			}
			if got := c.Counts["completed"] + c.Counts["rejected"] + c.Counts["cancelled"]; got != want {
				t.Fatalf("lost jobs: completed+rejected+cancelled = %d, submitted = %d (%+v)", got, want, c.Counts)
			}
			if c.Counts["rejected"] != 0 {
				t.Fatalf("no job exceeds the degraded machine, yet %d rejected", c.Counts["rejected"])
			}
			if c.UsedNodes != 0 || c.FreeNodes != c.Nodes {
				t.Fatalf("node accounting not conserved after drain: %+v", c)
			}
			// Every job's last size, as its terminal record answers it, lies
			// inside its declared bounds too: this catches a resize too
			// short-lived for a reader to load. Only accepted jobs are
			// addressable; a shed submit's ID stays unknown.
			found := int64(0)
			for id := int64(1); id <= s.nextID.Load(); id++ {
				var j jobJSON
				if getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", hs.URL, id), &j) != http.StatusOK {
					continue
				}
				found++
				if j.MinNodes > 0 && j.Size < j.MinNodes || j.MaxNodes > 0 && j.Size > j.MaxNodes {
					t.Fatalf("job %d ended at %d nodes, outside [%d, %d]", id, j.Size, j.MinNodes, j.MaxNodes)
				}
			}
			if found != want {
				t.Fatalf("%d jobs addressable after drain, want %d", found, want)
			}
			moves := c.Counts["grown"] + c.Counts["shrunk"] + c.Counts["preempted"]
			t.Logf("accepted %d, shed %d writes; grown %d, shrunk %d, preempted %d",
				want, sheds.Load(), c.Counts["grown"], c.Counts["shrunk"], c.Counts["preempted"])
			if tc.elastic > 0 && moves == 0 {
				t.Fatalf("elastic run grew, shrank and preempted nothing: %+v", c.Counts)
			}
		})
	}
}

// outOfBounds reports the first running job in v whose current size lies
// outside its declared [MinSize, MaxSize], or nil.
func outOfBounds(v *snapshot.View) error {
	for _, st := range v.Snap.Running {
		if j := st.Job; j.Size < j.MinSize() || j.Size > j.MaxSize() {
			return fmt.Errorf("job %d running at %d nodes, outside [%d, %d]", j.ID, j.Size, j.MinSize(), j.MaxSize())
		}
	}
	return nil
}
