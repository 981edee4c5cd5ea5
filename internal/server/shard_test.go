package server

// Tests for the sharded gateway: routing, cross-shard placement, the
// shards-1-vs-N differential across all six policies, and the /v1/shards
// surface. The -race stress interleaving lives in shardstress_test.go.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/topology"
	"repro/internal/trace"
)

func newReader(s string) io.Reader { return strings.NewReader(s) }

func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// newShardedServer starts a daemon on a radix-8 (128-node, 8-pod) tree
// split into the given number of shards.
func newShardedServer(t *testing.T, scheme string, shards int, virtual bool) (*Server, *httptest.Server) {
	t.Helper()
	tree := topology.MustNew(8)
	a, err := experiments.NewAllocator(scheme, tree)
	if err != nil {
		t.Fatal(err)
	}
	return newTestServer(t, Config{Alloc: a, VirtualClock: virtual, Shards: shards})
}

// pollJob polls a job's status until want (or the deadline).
func pollJob(t *testing.T, base string, id int64, want string) jobJSON {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var j jobJSON
	for time.Now().Before(deadline) {
		if code := getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", base, id), &j); code == http.StatusOK && j.State == want {
			return j
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %d never reached %q (last: %+v)", id, want, j)
	return j
}

// pollCluster polls /v1/cluster until ok returns true.
func pollCluster(t *testing.T, base string, ok func(clusterJSON) bool) clusterJSON {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var c clusterJSON
	for time.Now().Before(deadline) {
		getJSON(t, base+"/v1/cluster", &c)
		if ok(c) {
			return c
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("cluster never converged (last: %+v)", c)
	return c
}

type shardsJSON struct {
	Count int    `json:"count"`
	Route string `json:"route"`
	Max   int    `json:"max_single_shard_size"`
	Cross *struct {
		Waiting int   `json:"waiting"`
		Placed  int64 `json:"placed"`
	} `json:"cross"`
	Shards []struct {
		Shard    int `json:"shard"`
		PodLo    int `json:"pod_lo"`
		PodHi    int `json:"pod_hi"`
		Nodes    int `json:"nodes"`
		Used     int `json:"used_nodes"`
		Queue    int `json:"queue_depth"`
		Running  int `json:"running_jobs"`
		IngestQ  int `json:"ingest_depth"`
		Degraded bool
	} `json:"shards"`
}

// TestShardedLifecycle exercises the full sharded surface: single-shard
// routing, cross-shard whole-pod placement, coalesced reads, cancellation of
// waiting and running wide jobs, and the /v1/shards endpoint.
func TestShardedLifecycle(t *testing.T) {
	// Wall clock, so a long-running cross-shard job stays observable as
	// running instead of fast-forwarding to completion.
	_, hs := newShardedServer(t, "Jigsaw", 4, false)
	base := hs.URL

	var sh shardsJSON
	if code := getJSON(t, base+"/v1/shards", &sh); code != http.StatusOK {
		t.Fatalf("/v1/shards: %d", code)
	}
	if sh.Count != 4 || len(sh.Shards) != 4 || sh.Max != 32 || sh.Route != "hash" {
		t.Fatalf("shards meta: %+v", sh)
	}
	lo := 0
	for i, c := range sh.Shards {
		if c.Shard != i || c.PodLo != lo || c.PodHi != lo+2 || c.Nodes != 32 {
			t.Fatalf("shard %d cell: %+v", i, c)
		}
		lo = c.PodHi
	}
	if sh.Cross == nil {
		t.Fatal("no cross stats")
	}

	// Single-shard jobs route and complete (tiny wall-clock runtimes).
	for i := int64(1); i <= 8; i++ {
		resp, j := postJob(t, base, fmt.Sprintf(`{"id":%d,"size":4,"runtime":0.05}`, i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
		if j.ID != i {
			t.Fatalf("submit %d returned id %d", i, j.ID)
		}
	}
	pollCluster(t, base, func(c clusterJSON) bool { return c.Counts["completed"] == 8 })

	// A job wider than the widest cell (32 nodes) takes the cross-shard
	// path: whole-pod granularity, 40 nodes -> 3 pods -> 2 cells.
	resp, _ := postJob(t, base, `{"id":100,"size":40,"runtime":1000}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cross submit: %d", resp.StatusCode)
	}
	j := pollJob(t, base, 100, "running")
	if j.Size != 40 {
		t.Fatalf("cross job coalesced size = %d, want 40", j.Size)
	}
	c := pollCluster(t, base, func(c clusterJSON) bool { return c.UsedNodes == 40 })
	if c.RunningJobs != 1 {
		t.Fatalf("running_jobs = %d, want 1 (coalesced)", c.RunningJobs)
	}

	// The merged queue view lists waiting wide jobs; cancelling one while
	// waiting removes it without touching any engine.
	resp, _ = postJob(t, base, `{"id":101,"size":128,"runtime":50}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("waiting cross submit: %d", resp.StatusCode)
	}
	var q struct {
		Depth int       `json:"depth"`
		Jobs  []jobJSON `json:"jobs"`
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		getJSON(t, base+"/v1/queue", &q)
		if q.Depth == 1 && len(q.Jobs) == 1 && q.Jobs[0].ID == 101 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queued cross job not visible: %+v", q)
		}
		time.Sleep(2 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%d", base, 101), nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel waiting cross job: %d", dresp.StatusCode)
	}
	pollJob(t, base, 101, "cancelled")

	// Cancelling the running wide job releases every slice.
	req, _ = http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%d", base, 100), nil)
	dresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel running cross job: %d", dresp.StatusCode)
	}
	pollCluster(t, base, func(c clusterJSON) bool { return c.UsedNodes == 0 })
}

// TestShardedFailureRouting pins the failure paths: a node failure lands on
// the owning shard only, a spine-switch failure spans every shard, and
// recovery clears the merged degraded flag.
func TestShardedFailureRouting(t *testing.T) {
	s, hs := newShardedServer(t, "Jigsaw", 4, true)
	base := hs.URL

	// Node 40 is in pod 2 (16 nodes per pod) -> shard 1.
	resp := postBody(t, base+"/v1/fail", `{"kind":"node","node":40}`)
	if resp != http.StatusOK {
		t.Fatalf("fail node: %d", resp)
	}
	var sh shardsJSON
	getJSON(t, base+"/v1/shards", &sh)
	for i, c := range sh.Shards {
		if got := i == 1; c.Degraded != got {
			t.Fatalf("shard %d degraded = %v after node failure in pod 2", i, c.Degraded)
		}
	}
	if got := s.view().Snap.FailedNodes; got != 1 {
		t.Fatalf("merged failed nodes = %d, want 1", got)
	}

	// Spine-switch failures span every cell: all shards degrade, and the
	// merged link count is one uplink per pod.
	resp = postBody(t, base+"/v1/fail", `{"kind":"spine-switch","group":0,"spine":1}`)
	if resp != http.StatusOK {
		t.Fatalf("fail spine switch: %d", resp)
	}
	getJSON(t, base+"/v1/shards", &sh)
	for i, c := range sh.Shards {
		if !c.Degraded {
			t.Fatalf("shard %d not degraded after spine-switch failure", i)
		}
	}

	// Double-failing is rejected without leaving a partial application.
	if resp = postBody(t, base+"/v1/fail", `{"kind":"spine-switch","group":0,"spine":1}`); resp != http.StatusConflict {
		t.Fatalf("double spine-switch fail: %d", resp)
	}

	if resp = postBody(t, base+"/v1/recover", `{"kind":"spine-switch","group":0,"spine":1}`); resp != http.StatusOK {
		t.Fatalf("recover spine switch: %d", resp)
	}
	if resp = postBody(t, base+"/v1/recover", `{"kind":"node","node":40}`); resp != http.StatusOK {
		t.Fatalf("recover node: %d", resp)
	}
	getJSON(t, base+"/v1/shards", &sh)
	for i, c := range sh.Shards {
		if c.Degraded {
			t.Fatalf("shard %d still degraded after recovery", i)
		}
	}
}

func postBody(t *testing.T, url, body string) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", newReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode
}

// shardLocalTrace builds a workload whose jobs never queue: every size fits
// a leaf and arrivals are spaced out, so every job starts at its arrival on
// any shard count and the resulting per-job schedules must be identical.
func shardLocalTrace(rng *rand.Rand, tree *topology.FatTree, n int) []trace.Job {
	jobs := make([]trace.Job, n)
	at := 0.0
	for i := range jobs {
		at += 1 + rng.Float64()*19
		jobs[i] = trace.Job{
			ID:      int64(i + 1),
			Size:    1 + rng.Intn(tree.NodesPerLeaf),
			Arrival: at,
			Runtime: 1 + rng.Float64()*10,
		}
	}
	return jobs
}

// replayHTTP batch-submits the jobs, waits for the daemon to drain, and
// returns the final cluster state plus each job's reported schedule.
func replayHTTP(t *testing.T, base string, jobs []trace.Job) (clusterJSON, map[int64]jobJSON) {
	t.Helper()
	body := `{"jobs":[`
	for i, j := range jobs {
		if i > 0 {
			body += ","
		}
		body += fmt.Sprintf(`{"id":%d,"size":%d,"runtime":%g,"arrival":%g}`, j.ID, j.Size, j.Runtime, j.Arrival)
	}
	body += `]}`
	resp, err := http.Post(base+"/v1/jobs:batch", "application/json", newReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var br struct {
		Accepted int `json:"accepted"`
	}
	decodeBody(t, resp, &br)
	if br.Accepted != len(jobs) {
		t.Fatalf("batch accepted %d of %d", br.Accepted, len(jobs))
	}
	c := pollCluster(t, base, func(c clusterJSON) bool {
		return c.Counts["submitted"] == int64(len(jobs)) && c.Counts["completed"] == int64(len(jobs))
	})
	got := map[int64]jobJSON{}
	for _, j := range jobs {
		var jj jobJSON
		if code := getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", base, j.ID), &jj); code != http.StatusOK {
			t.Fatalf("job %d: %d", j.ID, code)
		}
		got[j.ID] = jj
	}
	return c, got
}

// TestShardsOneBitForBitSixPolicies replays one trace per policy through the
// Shards=1 gateway and through a bare engine, and requires identical counts,
// schedules, and steady-state utilization: the gateway over one lane must
// schedule exactly like the engine it wraps.
func TestShardsOneBitForBitSixPolicies(t *testing.T) {
	tree := topology.MustNew(8)
	for _, scheme := range experiments.Registered {
		t.Run(scheme, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			jobs := make([]trace.Job, 60)
			at := 0.0
			for i := range jobs {
				at += rng.Float64() * 3
				jobs[i] = trace.Job{
					ID:      int64(i + 1),
					Size:    1 + rng.Intn(tree.Nodes()/2),
					Arrival: at,
					Runtime: 1 + rng.Float64()*40,
				}
			}

			_, hs := newShardedServer(t, scheme, 1, true)
			c, got := replayHTTP(t, hs.URL, jobs)

			a, err := experiments.NewAllocator(scheme, tree)
			if err != nil {
				t.Fatal(err)
			}
			e, err := engine.New(engine.Config{Alloc: a, MeasureAllocTime: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range jobs {
				e.AdvanceTo(j.Arrival)
				if err := e.Submit(j); err != nil {
					t.Fatalf("submit %d: %v", j.ID, err)
				}
			}
			e.AdvanceTo(math.Inf(1))
			if e.Counts().Completed != c.Counts["completed"] || e.Counts().Started != c.Counts["started"] {
				t.Fatalf("counts diverge: engine %+v, http %+v", e.Counts(), c.Counts)
			}
			for _, j := range jobs {
				st, ok := e.Status(j.ID)
				if !ok {
					t.Fatalf("engine lost job %d", j.ID)
				}
				jj := got[j.ID]
				if jj.Start != st.Start || jj.End != st.End || jj.State != st.State.String() {
					t.Fatalf("job %d diverges: http [%g, %g] %s, engine [%g, %g] %s",
						j.ID, jj.Start, jj.End, jj.State, st.Start, st.End, st.State)
				}
			}
			var util struct {
				Utilization map[string]float64 `json:"utilization"`
			}
			getJSON(t, hs.URL+"/v1/cluster", &util)
			if want := e.SteadyUtilization(); util.Utilization["steady"] != want {
				t.Fatalf("steady utilization %g, want %g", util.Utilization["steady"], want)
			}
		})
	}
}

// TestShardCountDifferentialSixPolicies replays a shard-local (never-queued)
// trace at 1 and at 3 shards for every policy and requires identical per-job
// schedules and totals: sharding a workload that never crosses a cell
// boundary must be invisible.
func TestShardCountDifferentialSixPolicies(t *testing.T) {
	tree := topology.MustNew(8)
	for _, scheme := range experiments.Registered {
		t.Run(scheme, func(t *testing.T) {
			jobs := shardLocalTrace(rand.New(rand.NewSource(11)), tree, 60)

			_, hs1 := newShardedServer(t, scheme, 1, true)
			c1, got1 := replayHTTP(t, hs1.URL, jobs)

			_, hs3 := newShardedServer(t, scheme, 3, true)
			c3, got3 := replayHTTP(t, hs3.URL, jobs)

			if c1.Counts["completed"] != c3.Counts["completed"] || c1.Counts["started"] != c3.Counts["started"] {
				t.Fatalf("counts diverge: shards=1 %+v, shards=3 %+v", c1.Counts, c3.Counts)
			}
			for _, j := range jobs {
				a, b := got1[j.ID], got3[j.ID]
				if a.Start != b.Start || a.End != b.End || a.State != b.State {
					t.Fatalf("job %d diverges: shards=1 [%g, %g] %s, shards=3 [%g, %g] %s",
						j.ID, a.Start, a.End, a.State, b.Start, b.End, b.State)
				}
				if a.Start != j.Arrival {
					t.Fatalf("job %d queued on an uncontended trace (start %g, arrival %g)",
						j.ID, a.Start, j.Arrival)
				}
			}
		})
	}
}
