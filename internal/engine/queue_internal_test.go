package engine

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/trace"
)

// TestQueueRemovalNilsVacatedSlots is the white-box check that every queue
// removal path zeroes the slot it vacates, so the backing array does not pin
// started/cancelled jobItems (and through them, their jobs) alive until
// later appends happen to overwrite the slots.
func TestQueueRemovalNilsVacatedSlots(t *testing.T) {
	tree := topology.MustNew(8) // 128 nodes
	e, err := New(Config{Alloc: core.NewAllocator(tree)})
	if err != nil {
		t.Fatal(err)
	}
	submit := func(id int64, size int, runtime float64) {
		t.Helper()
		if err := e.Submit(trace.Job{ID: id, Size: size, Arrival: 0, Runtime: runtime}); err != nil {
			t.Fatal(err)
		}
	}

	// Fill the machine so subsequent jobs queue up behind a blocked head.
	submit(1, tree.Nodes(), 1000)
	submit(2, 64, 2000) // will be the blocked head
	submit(3, 8, 10)
	submit(4, 8, 10)
	submit(5, 8, 10)
	e.AdvanceTo(0)
	if len(e.queue) != 4 {
		t.Fatalf("queue depth = %d, want 4", len(e.queue))
	}
	backing := e.queue[:cap(e.queue):cap(e.queue)]

	// Cancel a mid-queue job: removeQueued shifts the tail left and nils the
	// end slot (the machine is still full, so nothing else moves).
	if _, err := e.Cancel(4); err != nil {
		t.Fatal(err)
	}
	if len(e.queue) != 3 {
		t.Fatalf("queue depth after cancel = %d, want 3", len(e.queue))
	}
	if backing[3] != nil {
		t.Fatalf("removeQueued left the vacated tail slot holding job %d", backing[3].j.ID)
	}

	// Cancelling the running job drains the queue: the head (64) and both
	// 8-node jobs start, each popHead nilling the slot it vacates.
	if _, err := e.Cancel(1); err != nil {
		t.Fatal(err)
	}
	if len(e.queue) != 0 {
		t.Fatalf("queue depth after release = %d, want 0", len(e.queue))
	}
	for i, it := range backing {
		if it != nil {
			t.Errorf("backing slot %d still pins job %d after its removal", i, it.j.ID)
		}
	}
}

// queueIDs lists the queued job IDs in order.
func queueIDs(q []*jobItem) []int64 {
	ids := make([]int64, len(q))
	for i, it := range q {
		ids[i] = it.j.ID
	}
	return ids
}

// TestRemoveQueuedShiftsShorterSide pins removeQueued at every position of a
// ten-deep queue: the survivors keep their order, and the one slot of the
// backing array that leaves the queue — the front one when the head side was
// shifted right, the end one when the tail side was shifted left — is nil.
func TestRemoveQueuedShiftsShorterSide(t *testing.T) {
	const n = 10
	for i := 0; i < n; i++ {
		e := &Engine{}
		for id := int64(0); id < n; id++ {
			e.queue = append(e.queue, &jobItem{j: trace.Job{ID: id}})
		}
		backing := e.queue[:n:n]
		e.removeQueued(i)

		var want []int64
		for id := int64(0); id < n; id++ {
			if id != int64(i) {
				want = append(want, id)
			}
		}
		if got := queueIDs(e.queue); !slices.Equal(got, want) {
			t.Errorf("removeQueued(%d): queue = %v, want %v", i, got, want)
		}
		vacated := n - 1 // tail side shifted left
		if i < n-1-i {
			vacated = 0 // head side shifted right, queue resliced from the front
		}
		for k, it := range backing {
			if (it == nil) != (k == vacated) {
				t.Errorf("removeQueued(%d): backing slot %d nil = %v, want nil only at %d", i, k, it == nil, vacated)
			}
		}
		if vacated == 0 && &e.queue[0] != &backing[1] {
			t.Errorf("removeQueued(%d): head-side removal moved the tail", i)
		}
	}

	// The last queued job.
	e := &Engine{queue: []*jobItem{{j: trace.Job{ID: 7}}}}
	backing := e.queue[:1:1]
	e.removeQueued(0)
	if len(e.queue) != 0 || backing[0] != nil {
		t.Errorf("removing the only job: queue %v, backing slot nil = %v", queueIDs(e.queue), backing[0] == nil)
	}
}

// TestCancelDeepQueuedJob drives both sides through the public path: behind a
// full machine, cancelling a job near the front and one near the back of a
// deep queue leaves the rest in FIFO order and nothing pinned.
func TestCancelDeepQueuedJob(t *testing.T) {
	tree := topology.MustNew(8)
	e, err := New(Config{Alloc: core.NewAllocator(tree)})
	if err != nil {
		t.Fatal(err)
	}
	const depth = 40
	for id := int64(1); id <= depth+1; id++ {
		size, runtime := 8, 10.0
		if id == 1 {
			size, runtime = tree.Nodes(), 1000 // fills the machine
		}
		if err := e.Submit(trace.Job{ID: id, Size: size, Runtime: runtime}); err != nil {
			t.Fatal(err)
		}
	}
	e.AdvanceTo(0)
	if len(e.queue) != depth {
		t.Fatalf("queue depth = %d, want %d", len(e.queue), depth)
	}
	backing := e.queue[:depth:depth]
	for _, id := range []int64{4, depth - 2} { // queue positions 2 and depth-4
		if _, err := e.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	var want []int64
	for id := int64(2); id <= depth+1; id++ {
		if id != 4 && id != depth-2 {
			want = append(want, id)
		}
	}
	if got := queueIDs(e.queue); !slices.Equal(got, want) {
		t.Fatalf("queue after cancels = %v, want %v", got, want)
	}
	if backing[0] != nil || backing[depth-1] != nil {
		t.Errorf("vacated slots still pin jobs: front nil = %v, end nil = %v", backing[0] == nil, backing[depth-1] == nil)
	}
}
