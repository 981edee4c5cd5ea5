package server

// Tests for the snapshot-guided cross-shard coordinator: zero parks on
// infeasible attempts, sub-pod placements the whole-pod path could never
// make, event-driven wake on freed capacity, terminal status for finished
// wide jobs, and the coordinator's edge paths (cancelled heads, dropHead,
// park-failure unwind).

import (
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/shard"
	"repro/internal/trace"
)

type crossStatsJSON struct {
	Waiting      int   `json:"waiting"`
	Placed       int64 `json:"placed"`
	SubpodPlaced int64 `json:"subpod_placed"`
	Attempts     int64 `json:"attempts"`
	Infeasible   int64 `json:"infeasible"`
	Conflicts    int64 `json:"conflicts"`
	Parks        int64 `json:"parks"`
}

// pollCross polls /v1/shards until ok accepts the cross stats.
func pollCross(t *testing.T, base string, ok func(crossStatsJSON) bool) crossStatsJSON {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var last crossStatsJSON
	for time.Now().Before(deadline) {
		var sh struct {
			Cross *crossStatsJSON `json:"cross"`
		}
		getJSON(t, base+"/v1/shards", &sh)
		if sh.Cross != nil {
			last = *sh.Cross
			if ok(last) {
				return last
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("cross stats never converged (last: %+v)", last)
	return last
}

// idForCell finds a job ID the hash router sends to the given cell at the
// given size, skipping IDs in taken.
func idForCell(t *testing.T, s *Server, ci, size int, taken map[int64]bool) int64 {
	t.Helper()
	for id := int64(1); id < 100000; id++ {
		if !taken[id] && shard.RouteHash(s.tree, s.cells, id, size) == ci {
			taken[id] = true
			return id
		}
	}
	t.Fatalf("no id routes to cell %d at size %d", ci, size)
	return 0
}

func deleteJob(t *testing.T, base string, id int64) int {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%d", base, id), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestCrossInfeasibleParksNoLanes pins the tentpole property: while a wide
// job cannot be placed, the coordinator's attempts run entirely on published
// snapshots and park zero lanes; when cancellations free enough capacity the
// job places off the event wake, parking exactly its member lanes.
func TestCrossInfeasibleParksNoLanes(t *testing.T) {
	// Wall clock: virtual lanes fast-forward to completion when idle, so
	// long-running blockers only block in wall mode.
	s, hs := newShardedServer(t, "Jigsaw", 4, false)
	base := hs.URL

	// One 32-node blocker per cell: the whole 128-node cluster is busy.
	taken := map[int64]bool{}
	blockers := make([]int64, 4)
	for ci := 0; ci < 4; ci++ {
		blockers[ci] = idForCell(t, s, ci, 32, taken)
		resp, _ := postJob(t, base, fmt.Sprintf(`{"id":%d,"size":32,"runtime":1000000}`, blockers[ci]))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("blocker %d: %d", ci, resp.StatusCode)
		}
	}
	pollCluster(t, base, func(c clusterJSON) bool { return c.UsedNodes == 128 })

	// A wide job (40 > maxCell 32) has nowhere to go.
	resp, _ := postJob(t, base, `{"id":500000,"size":40,"runtime":10}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("wide submit: %d", resp.StatusCode)
	}
	cs := pollCross(t, base, func(cs crossStatsJSON) bool {
		return cs.Waiting == 1 && cs.Infeasible >= 1
	})
	if cs.Parks != 0 {
		t.Fatalf("infeasible attempts parked %d lanes, want 0 (stats: %+v)", cs.Parks, cs)
	}
	if got := s.laneParks(); got != 0 {
		t.Fatalf("lane park counters = %d, want 0", got)
	}

	// Freeing two cells (4 pods = 64 nodes) makes 40 nodes feasible; the
	// cancel publishes ring the coordinator — no blind retry ticker needed.
	for _, ci := range []int{0, 1} {
		if code := deleteJob(t, base, blockers[ci]); code != http.StatusOK {
			t.Fatalf("cancel blocker %d: %d", ci, code)
		}
	}
	pollJob(t, base, 500000, "running")
	cs = pollCross(t, base, func(cs crossStatsJSON) bool { return cs.Placed == 1 })
	// 40 nodes = 2 full pods + a 2-leaf remainder pod, all inside cells 0-1:
	// exactly two member lanes parked, once each, and every pod used was
	// fully free, so the placement is whole-pod-equivalent.
	if cs.Parks != 2 || cs.SubpodPlaced != 0 || cs.Waiting != 0 {
		t.Fatalf("after placement: %+v (want parks=2, subpod_placed=0, waiting=0)", cs)
	}
}

// TestCrossSubPodPlacement places a wide job the whole-pod path could never
// start: every pod partially occupied or needed at sub-pod width. A size-1
// job per cell leaves no set of six fully-free pods for a 96-node job, but
// LT=3 trees over all eight pods fit exactly.
func TestCrossSubPodPlacement(t *testing.T) {
	s, hs := newShardedServer(t, "Jigsaw", 4, false) // wall clock; see above
	base := hs.URL

	taken := map[int64]bool{}
	for ci := 0; ci < 4; ci++ {
		id := idForCell(t, s, ci, 1, taken)
		resp, _ := postJob(t, base, fmt.Sprintf(`{"id":%d,"size":1,"runtime":1000000}`, id))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("narrow %d: %d", ci, resp.StatusCode)
		}
	}
	pollCluster(t, base, func(c clusterJSON) bool { return c.UsedNodes == 4 })

	resp, _ := postJob(t, base, `{"id":500000,"size":96,"runtime":50}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("wide submit: %d", resp.StatusCode)
	}
	j := pollJob(t, base, 500000, "running")
	if j.Size != 96 {
		t.Fatalf("wide job coalesced size = %d, want 96", j.Size)
	}
	pollCluster(t, base, func(c clusterJSON) bool { return c.UsedNodes == 100 })
	cs := pollCross(t, base, func(cs crossStatsJSON) bool { return cs.Placed == 1 })
	if cs.SubpodPlaced != 1 {
		t.Fatalf("sub-pod placement not counted: %+v", cs)
	}
	if cs.Parks != 4 {
		t.Fatalf("parks = %d, want 4 (one per member lane)", cs.Parks)
	}
}

// TestCrossStatusTerminalMerged pins the status fallback for a running wide
// job none of whose member lanes know it anymore (every slice finished and
// was evicted): the report must be terminal, not "queued".
func TestCrossStatusTerminalMerged(t *testing.T) {
	s, hs := newShardedServer(t, "Jigsaw", 4, true)

	cj := &crossJob{
		j:       trace.Job{ID: 777, Size: 40, Runtime: 5},
		eff:     5,
		state:   crossRunning,
		members: []int{0, 1},
	}
	s.cross.mu.Lock()
	s.cross.jobs[777] = cj
	s.cross.mu.Unlock()
	s.owner.loadOrStore(777, crossOwner)

	st, err := s.cross.status(777)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != engine.StateCompleted {
		t.Fatalf("forgotten running wide job reported %s, want completed", st.State)
	}
	var jj jobJSON
	if code := getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", hs.URL, 777), &jj); code != http.StatusOK {
		t.Fatalf("GET forgotten wide job: %d", code)
	}
	if jj.State != "completed" {
		t.Fatalf("HTTP reports %q, want completed", jj.State)
	}
}

// TestCrossCancelledHeadPaths covers the coordinator's cancel edges: a head
// cancelled before the attempt is disposed of without touching any lane, a
// head cancelled mid-composition is caught by the post-park re-check (lanes
// parked once, then released), and dropHead turns an unplaceable head
// terminal.
func TestCrossCancelledHeadPaths(t *testing.T) {
	s, hs := newShardedServer(t, "Jigsaw", 4, true)

	// Cancelled before the attempt: the cheap pre-check fires, zero parks.
	pre := &crossJob{j: trace.Job{ID: 901, Size: 40}, eff: 1, state: crossCancelled}
	s.cross.mu.Lock()
	s.cross.jobs[901] = pre
	s.cross.mu.Unlock()
	if !s.cross.place(pre) {
		t.Fatal("cancelled head not disposed of")
	}
	if got := s.laneParks(); got != 0 {
		t.Fatalf("pre-cancelled head parked %d lanes", got)
	}

	// Cancelled "while composing": state flips after the pre-check, so
	// tryPlace composes, parks the members, and must catch the cancel on the
	// post-park re-check — releasing everything without starting slices.
	mid := &crossJob{j: trace.Job{ID: 902, Size: 40}, eff: 1, state: crossCancelled}
	s.cross.mu.Lock()
	s.cross.jobs[902] = mid
	s.cross.mu.Unlock()
	done, conflict := s.cross.tryPlace(mid)
	if !done || conflict {
		t.Fatalf("tryPlace on cancelled job = (%v, %v), want (true, false)", done, conflict)
	}
	if got := s.laneParks(); got == 0 {
		t.Fatal("post-park cancel path never parked (test lost its premise)")
	}
	pollCluster(t, hs.URL, func(c clusterJSON) bool { return c.UsedNodes == 0 })

	// The lanes were released: normal traffic still completes.
	resp, _ := postJob(t, hs.URL, `{"id":903,"size":4,"runtime":1}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-release submit: %d", resp.StatusCode)
	}
	pollJob(t, hs.URL, 903, "completed")

	// dropHead marks the job cancelled and status reports it that way.
	dh := &crossJob{j: trace.Job{ID: 904, Size: 40}, eff: 1}
	s.cross.mu.Lock()
	s.cross.jobs[904] = dh
	s.cross.mu.Unlock()
	s.cross.dropHead(dh)
	st, err := s.cross.status(904)
	if err != nil || st.State != engine.StateCancelled {
		t.Fatalf("dropped head status = %+v, %v", st, err)
	}
	if !s.cross.place(dh) {
		t.Fatal("dropped head would wedge the FIFO")
	}
}

// TestCrossParkFailureUnwind closes a member lane between snapshot capture
// and parking: the coordinator must release the lanes it already parked in
// reverse order and never touch higher-indexed members.
func TestCrossParkFailureUnwind(t *testing.T) {
	s, hs := newShardedServer(t, "Jigsaw", 3, true)

	// Give every lane a pod-summary-bearing published view, then kill the
	// middle lane: its stale view still nominates its pods as candidates.
	for _, l := range s.lanes {
		if err := l.do(func(*engine.Engine) {}); err != nil {
			t.Fatal(err)
		}
	}
	s.lanes[1].close()

	cj := &crossJob{j: trace.Job{ID: 910, Size: 128}, eff: 1}
	s.cross.mu.Lock()
	s.cross.jobs[910] = cj
	s.cross.mu.Unlock()
	done, conflict := s.cross.tryPlace(cj)
	if done || conflict {
		t.Fatalf("tryPlace with a dead member = (%v, %v), want (false, false)", done, conflict)
	}
	if got := s.lanes[0].parks.Load(); got != 1 {
		t.Fatalf("lane 0 parks = %d, want 1", got)
	}
	if got := s.lanes[2].parks.Load(); got != 0 {
		t.Fatalf("lane 2 parked (%d) after a lower member failed — ascending order violated", got)
	}

	// Lane 0 was released by the unwind and still serves traffic.
	taken := map[int64]bool{}
	id := idForCell(t, s, 0, 4, taken)
	resp, _ := postJob(t, hs.URL, fmt.Sprintf(`{"id":%d,"size":4,"runtime":1}`, id))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-unwind submit: %d", resp.StatusCode)
	}
	pollJob(t, hs.URL, id, "completed")
}
