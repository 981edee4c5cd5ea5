package server

// Tests for the snapshot-guided cross-shard coordinator: zero parks on
// infeasible attempts, sub-pod placements the whole-pod path could never
// make, event-driven wake on freed capacity, a lost race retried from fresh
// Views, shrunk placements of malleable jobs, terminal status for finished
// wide jobs, and the coordinator's edge paths (cancelled heads, dropHead,
// park-failure unwind, shutdown). The attempt's steps one at a time are in
// cross_units_test.go.

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/shard"
	"repro/internal/topology"
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
// head cancelled mid-attempt loses the claim in charge (lanes parked once,
// then released, nothing started), and dropHead turns an unplaceable head
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
	// tryPlace composes and parks the members, and the claim must catch the
	// cancel — releasing everything without starting slices.
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
	s.cross.dropHead(dh, "test", nil)
	st, err := s.cross.status(904)
	if err != nil || st.State != engine.StateCancelled {
		t.Fatalf("dropped head status = %+v, %v", st, err)
	}
	if !s.cross.place(dh) {
		t.Fatal("dropped head would wedge the FIFO")
	}
}

// TestCrossParkFailureUnwind closes the middle member of a plan: parkAll must
// release the lower lane it already holds and never touch the higher one,
// and the attempt it belongs to must answer "wait" without a conflict. With
// every member alive parkAll hands out exactly the members' engines.
func TestCrossParkFailureUnwind(t *testing.T) {
	s, hs := newShardedServer(t, "Jigsaw", 4, true)

	engs, release, err := parkAll(s.lanes, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	for li, e := range engs {
		if want := li == 1 || li == 3; (e != nil) != want {
			t.Errorf("lane %d engine handed out = %v, want %v", li, e != nil, want)
		}
	}
	release()

	// A closed lane's last View still nominates its pods as candidates.
	s.lanes[2].close()
	if _, _, err := parkAll(s.lanes, []int{0, 2, 3}); !errors.Is(err, ErrClosed) {
		t.Fatalf("parkAll over a closed member: %v, want ErrClosed", err)
	}
	cj := registerCross(s, trace.Job{ID: 910, Size: 128})
	if done, conflict := s.cross.tryPlace(cj); done || conflict {
		t.Fatalf("tryPlace with a dead member = (%v, %v), want (false, false)", done, conflict)
	}
	for li, want := range []int64{2, 2, 0, 1} {
		if got := s.lanes[li].parks.Load(); got != want {
			t.Errorf("lane %d parks = %d, want %d (ascending order, nothing above the dead member)", li, got, want)
		}
	}

	// Lane 0 was released by both unwinds and still serves traffic.
	id := idForCell(t, s, 0, 4, map[int64]bool{})
	resp, _ := postJob(t, hs.URL, fmt.Sprintf(`{"id":%d,"size":4,"runtime":1}`, id))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-unwind submit: %d", resp.StatusCode)
	}
	pollJob(t, hs.URL, id, "completed")
}

// fakeClock is a settable Config.nowFunc.
type fakeClock struct {
	mu  sync.Mutex
	now float64
}

func (c *fakeClock) Now() float64  { c.mu.Lock(); defer c.mu.Unlock(); return c.now }
func (c *fakeClock) Set(v float64) { c.mu.Lock(); c.now = v; c.mu.Unlock() }

// TestCrossLostRaceRetriesFromFreshViews loses the race the way production
// does: aligning the member clocks under park starts a queued shard-local job
// that takes what the Views promised. Lane 0 runs a 4-node job until t=10
// with a cell-filling job queued behind it, so at t=11 its View still shows
// 28 free nodes while its engine, once advanced, has none. The attempt must
// count one conflict, release both members, and place the job on the other
// lanes from the Views the release published.
func TestCrossLostRaceRetriesFromFreshViews(t *testing.T) {
	clock := &fakeClock{}
	s, hs := newTestServer(t, Config{Alloc: core.NewAllocator(topology.MustNew(8)), Shards: 4, nowFunc: clock.Now})
	base := hs.URL

	taken := map[int64]bool{}
	small, filler := idForCell(t, s, 0, 4, taken), idForCell(t, s, 0, 32, taken)
	postJob(t, base, fmt.Sprintf(`{"id":%d,"size":4,"runtime":10}`, small))
	postJob(t, base, fmt.Sprintf(`{"id":%d,"size":32,"runtime":1000000}`, filler))
	pollJob(t, base, small, "running")
	pollJob(t, base, filler, "queued")

	clock.Set(11) // no lane wakes: their timers run on real time
	resp, _ := postJob(t, base, `{"id":500000,"size":40,"runtime":1000000}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("wide submit: %d", resp.StatusCode)
	}
	cs := pollCross(t, base, func(cs crossStatsJSON) bool { return cs.Placed == 1 })
	// Attempt 1 parked lanes 0 and 1 and lost; attempt 2 composed around the
	// now-full lane 0: 40 nodes on lanes 1 and 2.
	if cs.Conflicts != 1 || cs.Attempts != 2 || cs.Infeasible != 0 || cs.Parks != 4 {
		t.Fatalf("stats %+v, want conflicts=1 attempts=2 infeasible=0 parks=4", cs)
	}
	pollJob(t, base, filler, "running")
	pollJob(t, base, small, "completed")
	if j := pollJob(t, base, 500000, "running"); j.Size != 40 {
		t.Fatalf("wide job coalesced size = %d, want 40", j.Size)
	}
	pollCluster(t, base, func(c clusterJSON) bool { return c.UsedNodes == 72 })
	checkLanes(t, s)
	var lane0 int
	if err := s.lanes[0].do(func(e *engine.Engine) { lane0 = e.UsedNodes() }); err != nil || lane0 != 32 {
		t.Fatalf("lane 0 hosts %d nodes (%v), want only the filler's 32", lane0, err)
	}
}

// TestCrossRetryBudget loses the same race on every attempt: 16 one-pod
// lanes each hold a cell-filling job queued behind a one-leaf job that ends at
// t=10, and at t=11 every View still promises seven free leaves. A 72-node
// job needs two lanes per attempt, so there are eight races to lose; place
// must stop after its budget and leave the job waiting for the next wake.
func TestCrossRetryBudget(t *testing.T) {
	clock := &fakeClock{}
	s, hs := newTestServer(t, Config{Alloc: core.NewAllocator(topology.MustNew(16)), Shards: 16, nowFunc: clock.Now})
	taken := map[int64]bool{}
	var fillers []int64
	for ci := 0; ci < 16; ci++ {
		postJob(t, hs.URL, fmt.Sprintf(`{"id":%d,"size":8,"runtime":10}`, idForCell(t, s, ci, 8, taken)))
		fillers = append(fillers, idForCell(t, s, ci, 64, taken))
		postJob(t, hs.URL, fmt.Sprintf(`{"id":%d,"size":64,"runtime":1000000}`, fillers[ci]))
	}
	for _, id := range fillers {
		pollJob(t, hs.URL, id, "queued")
	}
	clock.Set(11)

	cj := registerCross(s, trace.Job{ID: 500000, Size: 72, Runtime: 1})
	if s.cross.place(cj) {
		t.Fatal("place disposed of a job it could not start")
	}
	cs := s.cross.stats()
	if cs.Conflicts != crossMaxValidateRetries+1 || cs.Attempts != cs.Conflicts || cs.Infeasible != 0 || cs.Placed != 0 {
		t.Fatalf("stats %+v, want %d attempts, all of them conflicts", cs, crossMaxValidateRetries+1)
	}
	if got := s.laneParks(); got != 2*cs.Attempts {
		t.Fatalf("parks = %d, want two per attempt", got)
	}
	if state, _ := stateOf(s.cross, cj); state != crossWaiting {
		t.Fatalf("job state %d after an exhausted budget, want waiting", state)
	}
	checkLanes(t, s)
}

// TestCrossRecomposesWhenTimeFreedCapacity is the race that is not lost: the
// clock alignment completes a job on a member lane, its version moves, and
// the live recomposition (over more free leaves than the Views showed) places
// the job in the same attempt.
func TestCrossRecomposesWhenTimeFreedCapacity(t *testing.T) {
	clock := &fakeClock{}
	s, hs := newTestServer(t, Config{Alloc: core.NewAllocator(topology.MustNew(8)), Shards: 4, nowFunc: clock.Now})
	base := hs.URL

	small := idForCell(t, s, 0, 4, map[int64]bool{})
	postJob(t, base, fmt.Sprintf(`{"id":%d,"size":4,"runtime":10}`, small))
	pollJob(t, base, small, "running")
	clock.Set(11)
	postJob(t, base, `{"id":500000,"size":40,"runtime":1000000}`)
	cs := pollCross(t, base, func(cs crossStatsJSON) bool { return cs.Placed == 1 })
	if cs.Conflicts != 0 || cs.Attempts != 1 || cs.Parks != 2 || cs.SubpodPlaced != 0 {
		t.Fatalf("stats %+v, want one attempt, no conflict, two parks, a whole-pod placement", cs)
	}
	pollJob(t, base, small, "completed")
	pollCluster(t, base, func(c clusterJSON) bool { return c.UsedNodes == 40 })
	checkLanes(t, s)
}

// TestCrossShrunkPlacement places a malleable wide job below its requested
// size on an elastic daemon: lanes 2 and 3 are full, so 96 nodes compose
// nothing and the job starts on the 64 that do, running 96/64 as long.
func TestCrossShrunkPlacement(t *testing.T) {
	s, hs := newTestServer(t, Config{Alloc: core.NewAllocator(topology.MustNew(8)), Shards: 4, Elastic: true})
	base := hs.URL
	taken := map[int64]bool{}
	for _, ci := range []int{2, 3} {
		postJob(t, base, fmt.Sprintf(`{"id":%d,"size":32,"runtime":1000000}`, idForCell(t, s, ci, 32, taken)))
	}
	pollCluster(t, base, func(c clusterJSON) bool { return c.UsedNodes == 64 })

	resp, _ := postJob(t, base, `{"id":500000,"size":96,"runtime":100,"min_nodes":40}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("wide submit: %d", resp.StatusCode)
	}
	pollJob(t, base, 500000, "running")
	var j jobJSON // decoded fresh: pollJob's reuses one across polls, and min_nodes is omitted when 0
	getJSON(t, base+"/v1/jobs/500000", &j)
	if j.Size != 64 || j.EffRuntime != 150 || j.MinNodes != 0 {
		t.Fatalf("shrunk job = %+v, want size 64, eff_runtime 150, rigid slices", j)
	}
	var sh struct {
		Cross struct {
			Placed int64 `json:"placed"`
			Shrunk int64 `json:"shrunk_placed"`
		} `json:"cross"`
	}
	getJSON(t, base+"/v1/shards", &sh)
	if sh.Cross.Placed != 1 || sh.Cross.Shrunk != 1 {
		t.Fatalf("cross stats %+v, want placed=1 shrunk_placed=1", sh.Cross)
	}
	checkLanes(t, s)
}

// TestCrossRefusesUnownedPod makes compose's refusal reachable through an
// attempt by shrinking the cell table under a quiescent server: the head is
// dropped (reported cancelled), nothing is parked, and the FIFO moves on.
func TestCrossRefusesUnownedPod(t *testing.T) {
	s, _ := newShardedServer(t, "Jigsaw", 4, true)
	s.cells = s.cells[:3]
	cj := registerCross(s, trace.Job{ID: 920, Size: 128})
	if done, conflict := s.cross.tryPlace(cj); !done || conflict {
		t.Fatalf("tryPlace = (%v, %v), want the head disposed of", done, conflict)
	}
	if st, err := s.cross.status(920); err != nil || st.State != engine.StateCancelled {
		t.Fatalf("refused head status = %+v, %v", st, err)
	}
	if got := s.laneParks(); got != 0 {
		t.Fatalf("a refused plan parked %d lanes", got)
	}
}

// TestCrossAfterClose pins the coordinator's answers around shutdown: close
// is idempotent, a wide submit after it is refused and its ID answers
// "unknown", jobs still waiting stay queued, and a running wide job whose
// member lane is gone answers 503 rather than a partial status.
func TestCrossAfterClose(t *testing.T) {
	s, hs := newTestServer(t, Config{Alloc: core.NewAllocator(topology.MustNew(8)), Shards: 4, ApplySpeedups: true})
	base := hs.URL
	postJob(t, base, `{"id":500000,"size":96,"runtime":1000000}`) // lanes 0-2
	if j := pollJob(t, base, 500000, "running"); j.EffRuntime != 1000000 {
		t.Fatalf("scenario None changed the runtime: %+v", j)
	}
	postJob(t, base, `{"id":500001,"size":40,"runtime":10}`)
	pollCross(t, base, func(cs crossStatsJSON) bool { return cs.Waiting == 1 && cs.Infeasible >= 1 })

	s.cross.close()
	s.cross.close()
	attempts := s.cross.stats().Attempts
	s.cross.placeAll() // a pass that starts after close attempts nothing
	if got := s.cross.stats().Attempts; got != attempts {
		t.Fatalf("placeAll after close made %d attempts", got-attempts)
	}
	if _, err := s.cross.submit(trace.Job{ID: 500002, Size: 40, Runtime: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	if resp, _ := postJob(t, base, `{"id":500003,"size":40,"runtime":1}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("HTTP wide submit after close: %d", resp.StatusCode)
	}
	// The gateway routed 500003 to the coordinator, which never took it.
	if code := getJSON(t, base+"/v1/jobs/500003", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("GET of a refused wide job: %d", code)
	}
	if code := deleteJob(t, base, 500003); code != http.StatusNotFound {
		t.Fatalf("DELETE of a refused wide job: %d", code)
	}
	pollJob(t, base, 500001, "queued")

	s.lanes[1].close()
	if code := getJSON(t, base+"/v1/jobs/500000", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("GET of a wide job with a closed member lane: %d", code)
	}
	if code := deleteJob(t, base, 500000); code != http.StatusServiceUnavailable {
		t.Fatalf("DELETE of a wide job with a closed member lane: %d", code)
	}
}
