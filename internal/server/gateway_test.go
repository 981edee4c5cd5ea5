package server

// Tests that pin the gateway to one behaviour at every lane count: ID
// assignment next to explicit IDs, and the fail/recover fan-out with its
// revert on a partial failure.

import (
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/topology"
)

// TestAssignedIDsSkipExplicitIDs submits an explicit ID and then ID-less jobs,
// singly, in a batch around a second explicit ID, and as a job wider than a
// quarter of the tree. Every job must be accepted, with the same IDs at 1 and
// at 4 lanes.
func TestAssignedIDsSkipExplicitIDs(t *testing.T) {
	want := []int64{2, 3, 4, 5, 10, 11, 12, 13}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			_, hs := newTestServer(t, Config{Alloc: core.NewAllocator(topology.MustNew(8)), VirtualClock: true, Shards: shards})
			var got []int64
			single := func(body string) {
				t.Helper()
				resp, j := postJob(t, hs.URL, body)
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("submit %s: status %d", body, resp.StatusCode)
				}
				got = append(got, j.ID)
			}
			single(`{"id":2,"size":4,"runtime":10}`)
			single(`{"size":4,"runtime":10}`)
			single(`{"size":4,"runtime":10}`)
			code, br := postBatch(t, hs.URL,
				`{"jobs":[{"size":4,"runtime":10},{"id":10,"size":4,"runtime":10},{"size":4,"runtime":10}]}`)
			if code != http.StatusAccepted || br.Accepted != 3 {
				t.Fatalf("batch: status %d, %+v", code, br)
			}
			for _, r := range br.Results {
				got = append(got, r.ID)
			}
			single(`{"size":40,"runtime":10}`) // wider than a 32-node cell: the coordinator's at 4 lanes
			single(`{"size":4,"runtime":10}`)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("assigned IDs %v, want %v", got, want)
			}
		})
	}
}

// TestNoConflictForIDLessSubmitsUnderConcurrency mixes explicit-ID and ID-less
// submits, single and batched, from 8 goroutines. The explicit IDs are spaced
// further apart than the number of IDs the test draws, so no assigned ID can
// reach one: a client that sent no ID must never see a conflict, and every ID
// must come back exactly once.
func TestNoConflictForIDLessSubmitsUnderConcurrency(t *testing.T) {
	const goroutines, rounds = 8, 5
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			_, hs := newTestServer(t, Config{Alloc: core.NewAllocator(topology.MustNew(8)), VirtualClock: true, Shards: shards})
			// An explicit ID in the range a counter that ignored explicit IDs
			// would hand out next.
			if resp, _ := postJob(t, hs.URL, `{"id":5,"size":1,"runtime":1}`); resp.StatusCode != http.StatusAccepted {
				t.Fatalf("seed submit: %d", resp.StatusCode)
			}
			var mu sync.Mutex
			seen := map[int64]bool{5: true}
			record := func(id int64) {
				mu.Lock()
				defer mu.Unlock()
				if seen[id] {
					t.Errorf("job id %d answered twice", id)
				}
				seen[id] = true
			}
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						explicit := int64((r+1)*10000 + g*1000)
						resp, j := postJob(t, hs.URL, fmt.Sprintf(`{"id":%d,"size":1,"runtime":1}`, explicit))
						if resp.StatusCode != http.StatusAccepted || j.ID != explicit {
							t.Errorf("explicit id %d: status %d, id %d", explicit, resp.StatusCode, j.ID)
							return
						}
						record(j.ID)
						resp, j = postJob(t, hs.URL, `{"size":1,"runtime":1}`)
						if resp.StatusCode != http.StatusAccepted {
							t.Errorf("ID-less submit: status %d", resp.StatusCode)
							return
						}
						record(j.ID)
						code, br := postBatch(t, hs.URL, `{"jobs":[{"size":1,"runtime":1},{"size":1,"runtime":1}]}`)
						if code != http.StatusAccepted || br.Failed != 0 {
							t.Errorf("ID-less batch: status %d, %+v", code, br)
							return
						}
						for _, res := range br.Results {
							record(res.ID)
						}
					}
				}()
			}
			wg.Wait()
			if want := 1 + goroutines*rounds*4; len(seen) != want {
				t.Fatalf("%d distinct job ids, want %d", len(seen), want)
			}
		})
	}
}

// failRecoverGolden holds what POST /v1/fail and /v1/recover answered at the
// commit before the two handlers were merged into one loop each, for a
// pod-local, a spine-switch and an out-of-range failure. Both lane counts
// answer the same bytes.
var failRecoverGolden = []struct{ path, body, want string }{
	{"/v1/fail", `{"kind":"node","node":5}`, `200 {"affected":0,"failure":"node 5","killed":0,"requeued":0,"shrunk":0}`},
	{"/v1/fail", `{"kind":"node","node":5}`, `409 {"error":"engine: node 5 already failed"}`},
	{"/v1/recover", `{"kind":"node","node":5}`, `200 {"degraded":false,"failure":"node 5"}`},
	{"/v1/recover", `{"kind":"node","node":5}`, `409 {"error":"engine: node 5 is not an active failure"}`},
	{"/v1/fail", `{"kind":"spine-switch","group":1,"spine":2}`, `200 {"affected":0,"failure":"spine-switch 1 2","killed":0,"requeued":0,"shrunk":0}`},
	{"/v1/fail", `{"kind":"spine-switch","group":1,"spine":2}`, `409 {"error":"engine: spine-switch 1 2 already failed"}`},
	{"/v1/recover", `{"kind":"spine-switch","group":1,"spine":2}`, `200 {"degraded":false,"failure":"spine-switch 1 2"}`},
	{"/v1/recover", `{"kind":"spine-switch","group":1,"spine":2}`, `409 {"error":"engine: spine-switch 1 2 is not an active failure"}`},
	{"/v1/fail", `{"kind":"node","node":9999}`, `409 {"error":"topology: node 9999: node outside [0, 128)"}`},
	{"/v1/recover", `{"kind":"node","node":9999}`, `409 {"error":"engine: node 9999 is not an active failure"}`},
	{"/v1/fail", `{"kind":"l2-switch","pod":99,"l2":0}`, `409 {"error":"topology: l2-switch 99 0: pod outside [0, 8)"}`},
}

// overlapGolden is the overlap rule over HTTP: an L2 switch and a spine
// switch that share pod 0's uplink (0,1,2) — at 4 lanes the spine switch
// reaches every lane, the L2 switch only lane 0 — accepted in this order,
// recovered in injection order, the shared uplink staying down until the
// second recovery; and a body with a field that does not identify its kind
// naming the same failure as the body without it.
var overlapGolden = []struct{ path, body, want string }{
	{"/v1/fail", `{"kind":"l2-switch","pod":0,"l2":1}`, `200 {"affected":0,"failure":"l2-switch 0 1","killed":0,"requeued":0,"shrunk":0}`},
	{"/v1/fail", `{"kind":"spine-switch","group":1,"spine":2}`, `200 {"affected":0,"failure":"spine-switch 1 2","killed":0,"requeued":0,"shrunk":0}`},
	{"/v1/recover", `{"kind":"l2-switch","pod":0,"l2":1}`, `200 {"degraded":true,"failure":"l2-switch 0 1"}`},
	{"/v1/recover", `{"kind":"spine-switch","group":1,"spine":2}`, `200 {"degraded":false,"failure":"spine-switch 1 2"}`},
	{"/v1/fail", `{"kind":"node","node":5,"leaf":3}`, `200 {"affected":0,"failure":"node 5","killed":0,"requeued":0,"shrunk":0}`},
	{"/v1/fail", `{"kind":"node","node":5}`, `409 {"error":"engine: node 5 already failed"}`},
	{"/v1/fail", `{"kind":"leaf-switch","leaf":1}`, `200 {"affected":0,"failure":"leaf-switch 1","killed":0,"requeued":0,"shrunk":0}`},
	{"/v1/recover", `{"kind":"leaf-switch","leaf":1,"spine":9}`, `200 {"degraded":true,"failure":"leaf-switch 1"}`},
	{"/v1/recover", `{"kind":"node","node":5,"pod":7}`, `200 {"degraded":false,"failure":"node 5"}`},
}

// TestFailRecoverFanOut pins the fail/recover loop over "the lanes this
// failure touches": the recorded answers at 1 and 4 lanes, overlapping
// failures at both, and, at 4 lanes, a spine-switch failure that meets a
// closed lane 2 answers 503 and is reverted on the lanes it had already
// reached — without healing the uplink an L2-switch failure active on lane 0
// shares with it.
func TestFailRecoverFanOut(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			tree := topology.MustNew(8)
			s, hs := newTestServer(t, Config{Alloc: core.NewAllocator(tree), VirtualClock: true, Shards: shards})
			failedLinks := func() int {
				t.Helper()
				var c struct {
					Failed struct{ Links int }
				}
				getJSON(t, hs.URL+"/v1/cluster", &c)
				return c.Failed.Links
			}
			for _, row := range failRecoverGolden {
				if got := do(t, "POST", hs.URL+row.path, row.body); got != row.want {
					t.Errorf("POST %s %s\n got  %s\n want %s", row.path, row.body, got, row.want)
				}
			}
			l2Links := tree.LeavesPerPod + tree.SpinesPerGroup
			for i, row := range overlapGolden {
				if got := do(t, "POST", hs.URL+row.path, row.body); got != row.want {
					t.Errorf("POST %s %s\n got  %s\n want %s", row.path, row.body, got, row.want)
				}
				// Row 1: the union, the shared uplink counted once. Row 2: the
				// L2 switch is gone and the spine switch still holds one uplink
				// per pod, the shared one included.
				if want := map[int]int{1: l2Links + tree.Pods - 1, 2: tree.Pods}[i]; want != 0 && failedLinks() != want {
					t.Errorf("after overlap row %d: %d failed links, want %d", i, failedLinks(), want)
				}
			}
			if code, body := getText(t, hs.URL+"/healthz"); code != http.StatusOK || body != "ok\n" {
				t.Fatalf("healthz after every overlapping failure recovered: %d %q", code, strings.TrimSpace(body))
			}
			if shards == 1 {
				return
			}

			if got := do(t, "POST", hs.URL+"/v1/fail", `{"kind":"l2-switch","pod":0,"l2":0}`); !strings.HasPrefix(got, "200 ") {
				t.Fatalf("l2-switch failure on lane 0: %s", got)
			}
			s.lanes[2].close()
			got := do(t, "POST", hs.URL+"/v1/fail", `{"kind":"spine-switch","group":0,"spine":1}`)
			if want := `503 {"error":"server: closed"}`; got != want {
				t.Fatalf("spine-switch failure with lane 2 closed\n got  %s\n want %s", got, want)
			}
			for _, i := range []int{0, 1, 3} {
				var active []topology.Failure
				var links int
				var shared bool
				var ierr error
				if err := s.lanes[i].do(func(e *engine.Engine) {
					st := e.Config().Alloc.State()
					active, links, shared = st.ActiveFailures(), st.FailedLinks(), st.SpineUplinkFailed(0, 0, 1)
					ierr = st.CheckInvariants()
				}); err != nil {
					t.Fatalf("lane %d: %v", i, err)
				}
				// Lane 0 keeps exactly the L2 switch, uplink (0,0,1) included;
				// the other lanes are healthy again.
				want, wantLinks := []topology.Failure(nil), 0
				if i == 0 {
					want, wantLinks = []topology.Failure{topology.L2SwitchFailure(0, 0)}, l2Links
				}
				if !reflect.DeepEqual(active, want) || links != wantLinks || shared != (i == 0) || ierr != nil {
					t.Fatalf("lane %d after the reverted failure: active=%v links=%d shared uplink failed=%v invariants=%v",
						i, active, links, shared, ierr)
				}
			}
			if got := do(t, "POST", hs.URL+"/v1/recover", `{"kind":"l2-switch","pod":0,"l2":0}`); got != `200 {"degraded":false,"failure":"l2-switch 0 0"}` {
				t.Fatalf("recovering the L2 switch after the reverted spine switch: %s", got)
			}
			if code, body := getText(t, hs.URL+"/healthz"); code != http.StatusOK || body != "ok\n" {
				t.Fatalf("healthz after the reverted failure: %d %q", code, strings.TrimSpace(body))
			}
		})
	}
}
