package server

// Tests for the batched front door: POST /v1/jobs:batch per-item results,
// 429 backpressure when the ingest queue fills, snapshot metadata on read
// endpoints, the HTTP-level batched-vs-serial differential, and the
// shutdown-drains-accepted-work guarantee (run under -race in CI).

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/topology"
)

type batchResult struct {
	Accepted int `json:"accepted"`
	Failed   int `json:"failed"`
	Results  []struct {
		jobJSON
		Error string `json:"error"`
	} `json:"results"`
}

func postBatch(t *testing.T, base, body string) (int, batchResult) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs:batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br batchResult
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, br
}

func grepLines(body, substr string) string {
	var out []string
	for _, l := range strings.Split(body, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

func TestBatchSubmitEndpoint(t *testing.T) {
	_, hs := newTestServer(t, Config{VirtualClock: true})

	// Mixed batch: two valid jobs around an invalid one. Per-item results
	// come back in request order; the invalid item never reaches the engine.
	code, br := postBatch(t, hs.URL,
		`{"jobs":[{"size":8,"runtime":50},{"size":0,"runtime":5},{"size":8,"runtime":50}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("batch status %d", code)
	}
	if br.Accepted != 2 || br.Failed != 1 || len(br.Results) != 3 {
		t.Fatalf("batch summary %+v", br)
	}
	if br.Results[0].ID != 1 || br.Results[0].Error != "" {
		t.Fatalf("item 0: %+v", br.Results[0])
	}
	if !strings.Contains(br.Results[1].Error, "size") {
		t.Fatalf("item 1 error %q", br.Results[1].Error)
	}
	if br.Results[2].ID != 2 || br.Results[2].Error != "" {
		t.Fatalf("item 2: %+v", br.Results[2])
	}
	// Both valid jobs were scheduled (two isolated 8-node partitions on the
	// 16-node tree under Jigsaw).
	for _, i := range []int{0, 2} {
		if st := br.Results[i].State; st != "running" && st != "completed" {
			t.Fatalf("item %d state %q", i, st)
		}
	}

	// A duplicate explicit ID inside one batch: first wins, second carries
	// the engine's rejection.
	_, br = postBatch(t, hs.URL,
		`{"jobs":[{"id":50,"size":2,"runtime":5},{"id":50,"size":2,"runtime":5}]}`)
	if br.Accepted != 1 || br.Failed != 1 || br.Results[1].Error == "" {
		t.Fatalf("duplicate-id batch %+v", br)
	}

	// Malformed bodies and bad shapes are rejected whole.
	for body, want := range map[string]int{
		`{"jobs":[]}`: http.StatusBadRequest,
		`{}`:          http.StatusBadRequest,
		`{"jobs":`:    http.StatusBadRequest,
		`{"bogus":1}`: http.StatusBadRequest,
	} {
		if code, _ := postBatch(t, hs.URL, body); code != want {
			t.Errorf("body %s: status %d, want %d", body, code, want)
		}
	}

	waitDrained(t, hs.URL)
}

// TestBatchResponseGoldenBytes pins the /v1/jobs:batch wire format on one
// response mixing an accepted job, a validation error and an engine error, at
// both shard counts. The bytes were recorded when the body was still a
// map[string]any, so the typed struct that replaced it provably encodes the
// same keys in the same order.
func TestBatchResponseGoldenBytes(t *testing.T) {
	const body = `{"jobs":[{"id":4,"size":4,"runtime":10},{"size":0,"runtime":10},{"id":4,"size":2,"runtime":5}]}`
	const want = `202 {"accepted":1,"failed":2,"results":[` +
		`{"id":4,"size":4,"runtime":10,"eff_runtime":10,"arrival":0,"state":"running","start":0,"end":10},` +
		`{"error":"size must be at least 1"},` +
		`{"error":"engine: duplicate job id 4"}]}`
	for _, shards := range []int{1, 4} {
		_, hs := newTestServer(t, Config{Alloc: core.NewAllocator(topology.MustNew(8)), VirtualClock: true, Shards: shards})
		if got := do(t, "POST", hs.URL+"/v1/jobs:batch", body); got != want {
			t.Errorf("shards=%d\n got  %s\n want %s", shards, got, want)
		}
	}
}

func TestBatchLargerThanQueueCapacityRejected(t *testing.T) {
	_, hs := newTestServer(t, Config{VirtualClock: true, ingestQueue: 4})
	items := make([]string, 5)
	for i := range items {
		items[i] = `{"size":1,"runtime":1}`
	}
	code, _ := postBatch(t, hs.URL, `{"jobs":[`+strings.Join(items, ",")+`]}`)
	if code != http.StatusBadRequest {
		t.Fatalf("oversized batch status %d, want 400", code)
	}
}

// TestBackpressure429 pins the overload contract at 1 and 4 lanes: when every
// ingest queue is full, a submit and a batch both answer 429 with Retry-After
// immediately instead of blocking the HTTP goroutine, and the shed load shows
// up in jigsawd_ingest_rejected_total. A batch that one lane admits and
// another sheds is still a 202 with per-item errors, and carries the header.
func TestBackpressure429(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, hs := newTestServer(t, Config{
				nowFunc:     func() float64 { return 0 },
				ingestQueue: 2,
				Shards:      shards,
			})

			// Park every engine goroutine inside an admin closure so nothing
			// drains.
			gates := make([]chan struct{}, shards)
			release := func() {
				for i, gate := range gates {
					if gate != nil {
						close(gate)
						gates[i] = nil
					}
				}
			}
			defer release() // a failed assertion must not leave Close waiting on a parked lane
			adminDone := make(chan error, shards)
			for i, l := range s.lanes {
				gate, parked := make(chan struct{}), make(chan struct{})
				gates[i] = gate
				go func() { adminDone <- l.do(func(e *engine.Engine) { close(parked); <-gate }) }()
				<-parked
			}

			// Fill every queue with async submits; their handlers block in Wait.
			// The gateway assigns IDs 1..2*shards and hash routing sends two of
			// them to each lane.
			inflight := make(chan int, 2*shards)
			for i := 0; i < 2*shards; i++ {
				go func() {
					resp, err := http.Post(hs.URL+"/v1/jobs", "application/json",
						strings.NewReader(`{"size":1,"runtime":5}`))
					if err != nil {
						inflight <- -1
						return
					}
					resp.Body.Close()
					inflight <- resp.StatusCode
				}()
			}
			deadline := time.Now().Add(5 * time.Second)
			for _, l := range s.lanes {
				for l.batcher.Len() < 2 {
					if time.Now().After(deadline) {
						t.Fatal("ingest queues never filled")
					}
					time.Sleep(time.Millisecond)
				}
			}

			// The next submit is shed, not blocked, and so is a batch no lane
			// admits.
			shed := func(path, body string) {
				t.Helper()
				resp, err := http.Post(hs.URL+path, "application/json", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusTooManyRequests {
					t.Fatalf("%s overload status %d, want 429", path, resp.StatusCode)
				}
				if ra := resp.Header.Get("Retry-After"); ra == "" {
					t.Fatalf("%s: 429 without Retry-After", path)
				}
			}
			shed("/v1/jobs", `{"size":1,"runtime":5}`)
			shed("/v1/jobs:batch", `{"jobs":[{"size":1,"runtime":5}]}`)

			// Reads still work while the writers are wedged — they are
			// snapshot-served — and the rejected counter is already visible.
			_, body := getText(t, hs.URL+"/metrics")
			if !strings.Contains(body, "jigsawd_ingest_rejected_total 2") {
				t.Fatalf("metrics missing rejected counter:\n%s", grepLines(body, "jigsawd_ingest"))
			}

			if shards > 1 {
				// Let lane 0 drain; explicit IDs 100 and 101 hash to lanes 0 and
				// 1, so lane 0 admits its item and lane 1 sheds the other.
				close(gates[0])
				gates[0] = nil
				for s.lanes[0].batcher.Len() > 0 {
					if time.Now().After(deadline) {
						t.Fatal("lane 0 never drained")
					}
					time.Sleep(time.Millisecond)
				}
				resp, err := http.Post(hs.URL+"/v1/jobs:batch", "application/json", strings.NewReader(
					`{"jobs":[{"id":100,"size":1,"runtime":5},{"id":101,"size":1,"runtime":5}]}`))
				if err != nil {
					t.Fatal(err)
				}
				var br batchResult
				err = json.NewDecoder(resp.Body).Decode(&br)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusAccepted || resp.Header.Get("Retry-After") == "" {
					t.Fatalf("partly-shed batch: status %d, Retry-After %q, decode %v",
						resp.StatusCode, resp.Header.Get("Retry-After"), err)
				}
				if br.Accepted != 1 || br.Failed != 1 || br.Results[0].ID != 100 ||
					br.Results[1].Error != ingest.ErrOverloaded.Error() {
					t.Fatalf("partly-shed batch: %+v", br)
				}
				if _, body := getText(t, hs.URL+"/metrics"); !strings.Contains(body, "jigsawd_ingest_rejected_total 3") {
					t.Fatalf("metrics after the partly-shed batch:\n%s", grepLines(body, "jigsawd_ingest"))
				}
			}

			// Unblock; the accepted submits must complete normally.
			release()
			for range s.lanes {
				if err := <-adminDone; err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 2*shards; i++ {
				if code := <-inflight; code != http.StatusAccepted {
					t.Fatalf("accepted submit finished with %d", code)
				}
			}
		})
	}
}

// TestSnapshotMetadataOnReads pins the satellite: /v1/queue and /v1/cluster
// carry the snapshot sequence, the fabric state version, and the publish
// time, so read-path staleness is observable.
func TestSnapshotMetadataOnReads(t *testing.T) {
	_, hs := newTestServer(t, Config{nowFunc: func() float64 { return 0 }})
	postJob(t, hs.URL, `{"size":4,"runtime":100}`)

	for _, path := range []string{"/v1/queue", "/v1/cluster"} {
		var meta struct {
			Seq          *uint64 `json:"snapshot_seq"`
			StateVersion *uint64 `json:"state_version"`
			PublishedAt  string  `json:"published_at"`
		}
		if code := getJSON(t, hs.URL+path, &meta); code != http.StatusOK {
			t.Fatalf("%s status %d", path, code)
		}
		if meta.Seq == nil || *meta.Seq == 0 {
			t.Fatalf("%s: missing or zero snapshot_seq", path)
		}
		if meta.StateVersion == nil || *meta.StateVersion == 0 {
			t.Fatalf("%s: missing or zero state_version (a job is running)", path)
		}
		if _, err := time.Parse(time.RFC3339Nano, meta.PublishedAt); err != nil {
			t.Fatalf("%s: published_at %q: %v", path, meta.PublishedAt, err)
		}
	}
}

// TestHTTPBatchedMatchesSerial is the HTTP layer of the differential: the
// same frozen-clock job list through /v1/jobs one at a time and through one
// /v1/jobs:batch call must yield identical per-job responses, queue
// contents, and cluster counts.
func TestHTTPBatchedMatchesSerial(t *testing.T) {
	cfg := func() Config {
		return Config{
			Alloc:   baseline.NewAllocator(topology.MustNew(4)),
			nowFunc: func() float64 { return 0 },
		}
	}
	_, serialHS := newTestServer(t, cfg())
	_, batchHS := newTestServer(t, cfg())

	jobs := []string{
		`{"size":8,"runtime":100}`,
		`{"size":8,"runtime":100}`,
		`{"size":16,"runtime":100}`, // queues behind the first two
		`{"id":7,"size":2,"runtime":100}`,
		`{"id":7,"size":2,"runtime":100}`, // duplicate: engine conflict
		`{"size":3,"runtime":100}`,
	}

	var serial []jobJSON
	var serialErr []bool
	for _, j := range jobs {
		resp, jj := postJob(t, serialHS.URL, j)
		serialErr = append(serialErr, resp.StatusCode != http.StatusAccepted)
		serial = append(serial, jj)
	}

	code, br := postBatch(t, batchHS.URL, `{"jobs":[`+strings.Join(jobs, ",")+`]}`)
	if code != http.StatusAccepted || len(br.Results) != len(jobs) {
		t.Fatalf("batch: %d %+v", code, br)
	}
	for i := range jobs {
		batchedErr := br.Results[i].Error != ""
		if batchedErr != serialErr[i] {
			t.Fatalf("job %d: batched err=%v serial err=%v", i, batchedErr, serialErr[i])
		}
		if !batchedErr && br.Results[i].jobJSON != serial[i] {
			t.Fatalf("job %d diverges:\nbatched: %+v\nserial:  %+v", i, br.Results[i].jobJSON, serial[i])
		}
	}

	var qa, qb struct {
		Depth int       `json:"depth"`
		Jobs  []jobJSON `json:"jobs"`
	}
	getJSON(t, serialHS.URL+"/v1/queue", &qa)
	getJSON(t, batchHS.URL+"/v1/queue", &qb)
	if qa.Depth != qb.Depth || len(qa.Jobs) != len(qb.Jobs) {
		t.Fatalf("queues diverge: %+v vs %+v", qa, qb)
	}
	for i := range qa.Jobs {
		if qa.Jobs[i] != qb.Jobs[i] {
			t.Fatalf("queued job %d diverges: %+v vs %+v", i, qa.Jobs[i], qb.Jobs[i])
		}
	}

	var ca, cb clusterJSON
	getJSON(t, serialHS.URL+"/v1/cluster", &ca)
	getJSON(t, batchHS.URL+"/v1/cluster", &cb)
	if ca.UsedNodes != cb.UsedNodes || ca.QueueDepth != cb.QueueDepth ||
		ca.RunningJobs != cb.RunningJobs {
		t.Fatalf("clusters diverge: %+v vs %+v", ca, cb)
	}
	for k, v := range ca.Counts {
		if cb.Counts[k] != v {
			t.Fatalf("count %s diverges: %d vs %d", k, v, cb.Counts[k])
		}
	}
}

// TestShutdownDrainsAcceptedWorkUnderLoad pins the satellite: Server.Close
// during a submit storm never drops an acknowledged operation (every 202's
// jobs are in the engine's ledger) and never hangs a client (late requests
// fail cleanly). Run under -race in CI.
func TestShutdownDrainsAcceptedWorkUnderLoad(t *testing.T) {
	s, err := New(Config{
		Alloc:        core.NewAllocator(topology.MustNew(4)),
		VirtualClock: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	var acceptedJobs atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			client := hs.Client()
			for i := 0; ; i++ {
				var resp *http.Response
				var err error
				if i%3 == 0 {
					resp, err = client.Post(hs.URL+"/v1/jobs:batch", "application/json",
						strings.NewReader(`{"jobs":[{"size":1,"runtime":1},{"size":2,"runtime":1},{"size":1,"runtime":1}]}`))
				} else {
					resp, err = client.Post(hs.URL+"/v1/jobs", "application/json",
						strings.NewReader(`{"size":1,"runtime":1}`))
				}
				if err != nil {
					return
				}
				switch resp.StatusCode {
				case http.StatusAccepted:
					if i%3 == 0 {
						var br batchResult
						json.NewDecoder(resp.Body).Decode(&br)
						acceptedJobs.Add(int64(br.Accepted))
					} else {
						acceptedJobs.Add(1)
					}
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					// Clean shedding — legal during overload and shutdown.
				default:
					t.Errorf("unexpected status %d", resp.StatusCode)
					resp.Body.Close()
					return
				}
				resp.Body.Close()
				select {
				case <-s.lanes[0].done:
					return
				default:
				}
			}
		}()
	}
	close(start)
	time.Sleep(50 * time.Millisecond) // let the storm build
	s.Close()
	wg.Wait()

	// Every acknowledged job is in the engine's ledger: producers are only
	// released after the snapshot covering their ops is published, and the
	// shutdown drain applies everything already accepted, so the final view
	// counts exactly the jobs clients saw acknowledged.
	if got := s.lanes[0].pub.Load().Snap.Counts.Submitted; got != acceptedJobs.Load() {
		t.Fatalf("engine submitted %d, clients saw %d accepted", got, acceptedJobs.Load())
	}
	// And late requests fail cleanly.
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(`{"size":1,"runtime":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-close submit status %d, want 503", resp.StatusCode)
	}
	if err := s.lanes[0].do(func(e *engine.Engine) {}); err != ErrClosed {
		t.Fatalf("post-close do = %v, want ErrClosed", err)
	}
}

// answer is one HTTP response as TestSubmitAndOneItemBatchAgree compares it.
type answer struct {
	code       int
	retryAfter string
	err        string // the body's error, or the one batch item's
	accepted   int    // batch only
}

func post(t *testing.T, url, body string) answer {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b struct {
		Error    string `json:"error"`
		Accepted int    `json:"accepted"`
		Results  []struct {
			Error string `json:"error"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&b); err != nil {
		t.Fatal(err)
	}
	a := answer{code: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After"), err: b.Error, accepted: b.Accepted}
	if len(b.Results) == 1 {
		a.err = b.Results[0].Error
	}
	return a
}

// TestSubmitAndOneItemBatchAgree: POST /v1/jobs and a one-item
// /v1/jobs:batch run one admission path, so they agree on every outcome, at 1
// and 4 lanes. A success, a full queue and a closing server answer the same
// status on both (a 429 with the same Retry-After); an invalid job (400) and a
// duplicate ID (409) are the single submit's status and the batch's one
// failed item, with the same error.
func TestSubmitAndOneItemBatchAgree(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, hs := newTestServer(t, Config{Alloc: core.NewAllocator(topology.MustNew(8)), VirtualClock: true, Shards: shards, ingestQueue: 4})
			both := func(job string) (single, batch answer) {
				return post(t, hs.URL+"/v1/jobs", job), post(t, hs.URL+"/v1/jobs:batch", `{"jobs":[`+job+`]}`)
			}
			same := func(outcome, job string, code int) {
				t.Helper()
				single, batch := both(job)
				if single.code != code || batch.code != code || single.retryAfter != batch.retryAfter {
					t.Fatalf("%s: single %+v, batch %+v, want both %d", outcome, single, batch, code)
				}
				if code == http.StatusTooManyRequests && single.retryAfter == "" {
					t.Fatalf("%s: 429 without Retry-After", outcome)
				}
			}
			itemFails := func(outcome, job string, code int) {
				t.Helper()
				single, batch := both(job)
				if single.code != code || single.err == "" ||
					batch.code != http.StatusAccepted || batch.accepted != 0 || batch.err != single.err {
					t.Fatalf("%s: single %+v, batch %+v, want %d and a failed item", outcome, single, batch, code)
				}
			}
			wide := fmt.Sprintf(`{"id":900,"size":%d,"runtime":1}`, s.maxCell+1)

			same("success", `{"size":1,"runtime":1}`, http.StatusAccepted)
			itemFails("invalid", `{"size":0,"runtime":1}`, http.StatusBadRequest)
			if code, _ := postJob(t, hs.URL, `{"id":800,"size":1,"runtime":1}`); code.StatusCode != http.StatusAccepted {
				t.Fatalf("seed job: %d", code.StatusCode)
			}
			itemFails("duplicate", `{"id":800,"size":1,"runtime":1}`, http.StatusConflict)
			if shards > 1 {
				if code, _ := postJob(t, hs.URL, wide); code.StatusCode != http.StatusAccepted {
					t.Fatalf("seed wide job: %d", code.StatusCode)
				}
				itemFails("wide duplicate", wide, http.StatusConflict)
			}

			// Full queues: every lane parked, its queue filled to the bound.
			var fill []*ingest.Batch
			var releases []func()
			for _, l := range s.lanes {
				_, release, err := l.park()
				if err != nil {
					t.Fatal(err)
				}
				releases = append(releases, release)
				for l.batcher.Len() < l.batcher.Cap() {
					b, err := l.batcher.Enqueue(&ingest.Op{Kind: ingest.Cancel, ID: -1})
					if err != nil {
						t.Fatal(err)
					}
					fill = append(fill, b)
				}
			}
			same("full queue", `{"size":1,"runtime":1}`, http.StatusTooManyRequests)
			for _, release := range releases {
				release()
			}
			for _, b := range fill {
				b.Wait()
			}

			s.Close()
			same("closing", `{"size":1,"runtime":1}`, http.StatusServiceUnavailable)
			if shards > 1 {
				same("closing, wide", fmt.Sprintf(`{"size":%d,"runtime":1}`, s.maxCell+1), http.StatusServiceUnavailable)
			}
		})
	}
}
