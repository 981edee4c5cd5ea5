package server

// Unit tests for the four steps of one cross-shard attempt (cross.go):
// compose over hand-built Views, confirm against engines a test has changed
// under park, and charge losing the claim to a cancel. parkAll's unwind and
// the end-to-end behaviour of the same steps are in cross_test.go.

import (
	"errors"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/shard"
	"repro/internal/snapshot"
	"repro/internal/topology"
	"repro/internal/trace"
)

// podsView is one lane's published View as compose reads it: a state version
// and one summary per pod, given as fully-free-leaf masks from podLo up.
func podsView(version uint64, podLo int, leafMasks ...uint64) *snapshot.View {
	v := &snapshot.View{StateVersion: version}
	for i, m := range leafMasks {
		ps := topology.PodSummary{Pod: podLo + i, LeafMask: m}
		for ; m != 0; m &= m - 1 {
			ps.FreeLeaves++
		}
		v.Pods = append(v.Pods, ps)
	}
	return v
}

// TestComposeTable drives compose, a pure function, over hand-built Views of
// a radix-8 tree (8 pods of 4 leaves of 4 nodes) in 4 cells of 2 pods.
func TestComposeTable(t *testing.T) {
	tree := topology.MustNew(8)
	cells, err := shard.Plan(tree, 4)
	if err != nil {
		t.Fatal(err)
	}
	const free, none = 0b1111, 0
	idle := []*snapshot.View{
		podsView(11, 0, free, free), podsView(12, 2, free, free),
		podsView(13, 4, free, free), podsView(14, 6, free, free),
	}
	half := []*snapshot.View{ // cells 0 and 1 free: 64 nodes
		podsView(1, 0, free, free), podsView(2, 2, free, free),
		podsView(3, 4, none, none), podsView(4, 6, none, none),
	}
	oneLeaf := []*snapshot.View{
		podsView(1, 0, none, none), podsView(2, 2, none, 0b0100),
		podsView(3, 4, none, none), podsView(4, 6, none, none),
	}
	for _, tc := range []struct {
		name    string
		cells   []shard.Cell
		views   []*snapshot.View
		job     trace.Job
		elastic bool

		size     int // 0: no plan
		members  []int
		versions []uint64
		subpod   bool
		unowned  bool
	}{
		{name: "whole pods", cells: cells, views: idle, job: trace.Job{Size: 40},
			size: 40, members: []int{0, 1}, versions: []uint64{11, 12}},
		{name: "sub-pod width", cells: cells, views: []*snapshot.View{
			podsView(5, 0, 0b0111, 0b0111), podsView(6, 2, 0b0111, 0b0111),
			podsView(7, 4, 0b0111, 0b0111), podsView(8, 6, 0b0111, 0b0111),
		}, job: trace.Job{Size: 96},
			size: 96, members: []int{0, 1, 2, 3}, versions: []uint64{5, 6, 7, 8}, subpod: true},
		{name: "infeasible", cells: cells, views: half, job: trace.Job{Size: 96}},
		{name: "malleable but not an elastic daemon", cells: cells, views: half,
			job: trace.Job{Size: 96, MinNodes: 40}},
		{name: "elastic falls to the largest leaf multiple that composes", cells: cells, views: half,
			job: trace.Job{Size: 96, MinNodes: 40}, elastic: true,
			size: 64, members: []int{0, 1}, versions: []uint64{1, 2}},
		{name: "elastic floor is MinSize", cells: cells, views: half,
			job: trace.Job{Size: 96, MinNodes: 68}, elastic: true},
		{name: "elastic floor is one leaf", cells: cells, views: oneLeaf,
			job: trace.Job{Size: 40, MinNodes: 1}, elastic: true,
			size: 4, members: []int{1}, versions: []uint64{2}, subpod: true},
		{name: "rigid job on an elastic daemon", cells: cells, views: oneLeaf,
			job: trace.Job{Size: 40}, elastic: true},
		{name: "pod outside every cell", cells: cells[:3], views: idle, job: trace.Job{Size: 128},
			unowned: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl, err := compose(tree, tc.cells, tc.views, tc.job, tc.elastic)
			if got := errors.Is(err, errUnownedPod); got != tc.unowned {
				t.Fatalf("err = %v, unowned-pod refusal = %v, want %v", err, got, tc.unowned)
			}
			if tc.size == 0 {
				if pl != nil || err == nil {
					t.Fatalf("compose = %+v, %v; want no plan and an error", pl, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if pl.size != tc.size || pl.p.Size() != tc.size || pl.subpod != tc.subpod ||
				!reflect.DeepEqual(pl.members, tc.members) || !reflect.DeepEqual(pl.versions, tc.versions) {
				t.Fatalf("plan = size %d (partition %d) members %v versions %v subpod %v,\nwant size %d members %v versions %v subpod %v",
					pl.size, pl.p.Size(), pl.members, pl.versions, pl.subpod, tc.size, tc.members, tc.versions, tc.subpod)
			}
			if err := pl.p.Verify(tree); err != nil {
				t.Fatalf("composed partition is illegal: %v", err)
			}
		})
	}
}

// registerCross makes j a waiting cross-shard job without waking the
// coordinator, so a test can drive the attempt's steps itself.
func registerCross(s *Server, j trace.Job) *crossJob {
	cj := &crossJob{j: j, eff: j.Runtime}
	s.cross.mu.Lock()
	s.cross.jobs[j.ID] = cj
	s.cross.mu.Unlock()
	s.owner.loadOrStore(j.ID, crossOwner)
	return cj
}

// occupyLeaf starts a long one-node shard-local job on the given leaf
// (machine-wide index) of a parked engine.
func occupyLeaf(t *testing.T, e *engine.Engine, id int64, leaf int) {
	t.Helper()
	pl := topology.NewPlacement(topology.JobID(id), e.Config().Alloc.State().Capacity)
	pl.AddLeafNodes(leaf, 1)
	if _, err := e.StartPlaced(trace.Job{ID: id, Size: 1, Runtime: 1e6}, 1e6, pl); err != nil {
		t.Fatal(err)
	}
}

// usesLeaf and usesSpine report whether a partition takes the given leaf of
// a pod, or the given spine uplink of a pod's L2 switch.
func usesLeaf(pl *plan, pod, leaf int) bool {
	for _, tr := range pl.p.Trees {
		for _, lf := range tr.Leaves {
			if tr.Pod == pod && lf.Leaf == leaf {
				return true
			}
		}
	}
	return false
}

func usesSpine(pl *plan, pod, l2, spine int) bool {
	for _, tr := range pl.p.Trees {
		sets := pl.p.SpineSet
		if tr.Remainder {
			sets = pl.p.SpineSetR
		}
		for _, sp := range sets[l2] {
			if tr.Pod == pod && sp == spine {
				return true
			}
		}
	}
	return false
}

// checkLanes requires every lane to be running again with clean allocation
// state invariants and, when nothing is unpublished, a View equal to a
// capture of its engine; probe are IDs the View must not hold unless the
// capture does.
func checkLanes(t *testing.T, s *Server, probe ...int64) {
	t.Helper()
	for li, l := range s.lanes {
		var err error
		if derr := l.do(func(e *engine.Engine) {
			if err = e.Config().Alloc.State().CheckInvariants(); err == nil && l.unpublished == 0 {
				// Nothing delivered since the last publish: the View must be
				// a capture of the engine, taken at the View's clock (a wall
				// lane's turn moves the clock alone without publishing).
				v := l.pub.Load()
				c := capture(e)
				c.snap.Now, c.utilNow = v.Snap.Now, e.UtilizationTo(v.Snap.Now)
				err = c.check(v, probe)
			}
		}); derr != nil {
			t.Fatalf("lane %d not released: %v", li, derr)
		}
		if err != nil {
			t.Fatalf("lane %d: %v", li, err)
		}
	}
}

// TestConfirmAgainstLiveEngines composes a 40-node job on an idle machine
// (two full pods 0 and 1 plus two leaves of pod 2: lanes 0 and 1), parks its
// members, lets "shard-local traffic" change the engines under the park, and
// then runs the live check and the charge.
func TestConfirmAgainstLiveEngines(t *testing.T) {
	for _, tc := range []struct {
		name string
		// race is what happened on the member lanes between the Views the
		// plan was composed from and the park.
		race func(t *testing.T, engs []*engine.Engine)
		// check inspects the confirmed plan (nil: conflict) next to the
		// snapshot plan.
		check func(t *testing.T, snap, got *plan)
		used  int // nodes in use once the lanes are released
	}{
		{
			name: "nothing moved: the snapshot plan itself",
			race: func(*testing.T, []*engine.Engine) {},
			check: func(t *testing.T, snap, got *plan) {
				mustBe(t, got == snap, "confirm built a new plan with no version moved")
			},
			used: 40,
		},
		{
			name: "a chosen leaf was taken: recomposed on the members' other free leaves",
			race: func(t *testing.T, engs []*engine.Engine) { occupyLeaf(t, engs[0], 9001, 0) },
			check: func(t *testing.T, snap, got *plan) {
				mustBe(t, usesLeaf(snap, 0, 0), "test premise: the snapshot plan uses pod 0 leaf 0")
				mustBe(t, got != nil && got != snap, "no recomposition")
				mustBe(t, !usesLeaf(got, 0, 0), "recomposed plan still takes the occupied leaf")
				mustBe(t, got.subpod, "a plan over a partially-free pod must count as sub-pod")
			},
			used: 41,
		},
		{
			name: "a chosen spine uplink was used up: recomposed around it",
			race: func(t *testing.T, engs []*engine.Engine) {
				if _, err := engs[0].Fail(topology.SpineUplinkFailure(0, 0, 0)); err != nil {
					t.Fatal(err)
				}
			},
			check: func(t *testing.T, snap, got *plan) {
				mustBe(t, usesSpine(snap, 0, 0, 0), "test premise: the snapshot plan uses pod 0's uplink to spine 0 of group 0")
				mustBe(t, got != nil && got != snap, "no recomposition")
				mustBe(t, !usesSpine(got, 0, 0, 0), "recomposed plan still takes the used uplink")
			},
			used: 40,
		},
		{
			// A job came and went in pod 3, which the plan leaves alone: lane
			// 1's version moved, its summaries did not. (An occupant that
			// stays changes the best-fit order and may move the remainder
			// tree, as legally as in the leaf case above.)
			name: "a version bump in an untouched pod: the same partition",
			race: func(t *testing.T, engs []*engine.Engine) {
				occupyLeaf(t, engs[1], 9001, 3*4)
				if _, err := engs[1].Cancel(9001); err != nil {
					t.Fatal(err)
				}
			},
			check: func(t *testing.T, snap, got *plan) {
				mustBe(t, got != nil && got != snap, "no recomposition although a version moved")
				mustBe(t, reflect.DeepEqual(got.p, snap.p) && reflect.DeepEqual(got.members, snap.members) && got.subpod == snap.subpod,
					"recomposition over unchanged summaries changed the plan")
			},
			used: 40,
		},
		{
			name: "capacity gone: conflict, nothing charged",
			race: func(t *testing.T, engs []*engine.Engine) {
				for pod := 0; pod < 4; pod++ { // 8 of the members' 16 leaves: 8 < 10 remain
					occupyLeaf(t, engs[pod/2], int64(9001+2*pod), pod*4)
					occupyLeaf(t, engs[pod/2], int64(9002+2*pod), pod*4+1)
				}
			},
			check: func(t *testing.T, snap, got *plan) { mustBe(t, got == nil, "confirm found a plan on 8 free leaves") },
			used:  8,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, hs := newShardedServer(t, "Jigsaw", 4, false)
			c := s.cross
			cj := registerCross(s, trace.Job{ID: 500000, Size: 40, Runtime: 1e6})
			snap, err := compose(s.tree, s.cells, s.laneViews(), cj.j, false)
			if err != nil || !reflect.DeepEqual(snap.members, []int{0, 1}) {
				t.Fatalf("compose on an idle machine = %+v, %v", snap, err)
			}
			engs, release, err := parkAll(s.lanes, snap.members)
			if err != nil {
				t.Fatal(err)
			}
			tc.race(t, engs)
			got := c.confirm(cj, snap, engs)
			tc.check(t, snap, got)
			if got != nil {
				if err := got.p.Verify(s.tree); err != nil {
					t.Errorf("confirmed partition is illegal: %v", err)
				}
				c.charge(cj, got, engs) // Mirror panics on a resource that is not free
			}
			release()

			checkLanes(t, s)
			pollCluster(t, hs.URL, func(cl clusterJSON) bool { return cl.UsedNodes == tc.used })
			wantPlaced, wantState := int64(1), crossRunning
			if got == nil {
				wantPlaced, wantState = 0, crossWaiting
			}
			if state, _ := stateOf(c, cj); c.stats().Placed != wantPlaced || state != wantState {
				t.Fatalf("placed = %d, job state = %d; want %d, %d", c.stats().Placed, state, wantPlaced, wantState)
			}
			if got != nil {
				if j := pollJob(t, hs.URL, 500000, "running"); j.Size != 40 {
					t.Fatalf("charged slices sum to %d nodes, want 40", j.Size)
				}
			}
		})
	}
}

// stateOf reads a cross job's lifecycle state and members under the
// coordinator's lock.
func stateOf(c *coordinator, cj *crossJob) (crossState, []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cj.state, cj.members
}

func mustBe(t *testing.T, ok bool, msg string) {
	t.Helper()
	if !ok {
		t.Fatal(msg)
	}
}

// TestChargeLosesClaimToCancel lands a DELETE between the live check and the
// charge: claim fails, so no member lane may start a slice.
func TestChargeLosesClaimToCancel(t *testing.T) {
	s, hs := newShardedServer(t, "Jigsaw", 4, false)
	c := s.cross
	cj := registerCross(s, trace.Job{ID: 500000, Size: 40, Runtime: 1e6})
	pl, err := compose(s.tree, s.cells, s.laneViews(), cj.j, false)
	if err != nil {
		t.Fatal(err)
	}
	engs, release, err := parkAll(s.lanes, pl.members)
	if err != nil {
		t.Fatal(err)
	}
	if pl = c.confirm(cj, pl, engs); pl == nil {
		t.Fatal("conflict on an idle machine")
	}
	if code := deleteJob(t, hs.URL, 500000); code != http.StatusOK {
		t.Fatalf("cancel of a waiting wide job: %d", code)
	}
	c.charge(cj, pl, engs)
	for _, li := range pl.members {
		if n := engs[li].ActiveJobs(); n != 0 {
			t.Errorf("lane %d started %d slices of a cancelled job", li, n)
		}
	}
	release()
	checkLanes(t, s)
	if state, members := stateOf(c, cj); c.stats().Placed != 0 || state != crossCancelled || members != nil {
		t.Fatalf("after a lost claim: placed %d, state %d, members %v", c.stats().Placed, state, members)
	}
	if code := deleteJob(t, hs.URL, 500000); code != http.StatusConflict {
		t.Fatalf("second cancel: %d, want 409", code)
	}
	if j := pollJob(t, hs.URL, 500000, "cancelled"); j.Size != 40 {
		t.Fatalf("cancelled wide job reports %+v", j)
	}
	pollCluster(t, hs.URL, func(cl clusterJSON) bool { return cl.UsedNodes == 0 })
}
