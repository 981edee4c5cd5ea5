package server

// When a lane publishes: never for a closure that only read, always before a
// closure that changed something answers, and on a bounded cadence once the
// active set makes a capture expensive (the publish throttle, lane.go).

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/topology"
	"repro/internal/trace"
)

// laneSeqs reads every lane's snapshot_seq from /v1/shards.
func laneSeqs(t *testing.T, base string) []uint64 {
	t.Helper()
	var sh struct {
		Shards []struct {
			Seq uint64 `json:"snapshot_seq"`
		} `json:"shards"`
	}
	if code := getJSON(t, base+"/v1/shards", &sh); code != http.StatusOK {
		t.Fatalf("/v1/shards: %d", code)
	}
	seqs := make([]uint64, len(sh.Shards))
	for i, s := range sh.Shards {
		seqs[i] = s.Seq
	}
	return seqs
}

// TestReadOnlyClosuresDoNotPublish: GET of a finished job (the ledger
// fallback, a closure on the engine goroutine) and a refused fail leave
// snapshot_seq where it was, on either clock; fail and recover move it before
// they answer.
func TestReadOnlyClosuresDoNotPublish(t *testing.T) {
	for _, virtual := range []bool{false, true} {
		t.Run(fmt.Sprintf("virtual=%v", virtual), func(t *testing.T) {
			clock := &fakeClock{}
			s, hs := newTestServer(t, Config{VirtualClock: virtual, nowFunc: clock.Now})
			postJob(t, hs.URL, `{"id":1,"size":4,"runtime":1}`)
			if !virtual {
				clock.Set(5)
				// Wake the lane: the completion time delivers is published.
				if err := s.lanes[0].do(func(*engine.Engine) {}); err != nil {
					t.Fatal(err)
				}
			}
			pollJob(t, hs.URL, 1, "completed")

			seq := laneSeqs(t, hs.URL)[0]
			same := func(what string) {
				t.Helper()
				if got := laneSeqs(t, hs.URL)[0]; got != seq {
					t.Fatalf("%s moved snapshot_seq %d -> %d", what, seq, got)
				}
			}
			moved := func(what string) {
				t.Helper()
				got := laneSeqs(t, hs.URL)[0]
				if got <= seq {
					t.Fatalf("%s left snapshot_seq at %d: its effect was not published", what, got)
				}
				seq = got
			}
			for i := 0; i < 5; i++ {
				pollJob(t, hs.URL, 1, "completed")
			}
			same("five GETs of a finished job")
			node := `{"kind":"node","node":0}`
			postFailure(t, hs.URL+"/v1/fail", node)
			moved("fail")
			if resp, _ := postFailure(t, hs.URL+"/v1/fail", node); resp.StatusCode != http.StatusConflict {
				t.Fatalf("second fail of the same node: %d", resp.StatusCode)
			}
			same("a refused fail")
			postFailure(t, hs.URL+"/v1/recover", node)
			moved("recover")
		})
	}
}

// TestParkPublishesWhatItCharged: the member lanes of a wide placement
// publish their slices as they are released, the other lanes publish
// nothing, and status lookups of the running wide job (closures on every
// member) publish nothing either.
func TestParkPublishesWhatItCharged(t *testing.T) {
	clock := &fakeClock{}
	_, hs := newTestServer(t, Config{Alloc: core.NewAllocator(topology.MustNew(8)), Shards: 4, nowFunc: clock.Now})
	before := laneSeqs(t, hs.URL)
	postJob(t, hs.URL, `{"id":500000,"size":40,"runtime":1000}`)
	pollJob(t, hs.URL, 500000, "running")
	after := laneSeqs(t, hs.URL)
	for li := range after {
		if member := li < 2; (after[li] > before[li]) != member {
			t.Errorf("lane %d snapshot_seq %d -> %d; member of the placement: %v", li, before[li], after[li], member)
		}
	}
	for i := 0; i < 3; i++ {
		pollJob(t, hs.URL, 500000, "running")
	}
	if got := laneSeqs(t, hs.URL); fmt.Sprint(got) != fmt.Sprint(after) {
		t.Fatalf("status lookups of a running wide job moved lane seqs %v -> %v", after, got)
	}
}

// TestPublishThrottle holds more than publishCheapThreshold jobs active on
// either clock: node 15 stays failed, so no whole-machine job can start and
// no event is ever due. Drains then outnumber publishes, a deferred write
// becomes visible with no further traffic (the idle turn's deadline, not the
// lane going idle), fail and recover still publish before they answer, and
// Close publishes a write that is still deferred.
func TestPublishThrottle(t *testing.T) {
	for _, virtual := range []bool{false, true} {
		t.Run(fmt.Sprintf("virtual=%v", virtual), func(t *testing.T) {
			testPublishThrottle(t, virtual)
		})
	}
}

func testPublishThrottle(t *testing.T, virtual bool) {
	s, hs := newTestServer(t, Config{VirtualClock: virtual, nowFunc: func() float64 { return 0 }, ingestQueue: 8192})
	l := s.lanes[0]
	const held = 1 // node 15, failed for the whole test
	postFailure(t, hs.URL+"/v1/fail", `{"kind":"node","node":15}`)
	submit := func(id int64) {
		t.Helper()
		op := &ingest.Op{Kind: ingest.Submit, Job: trace.Job{ID: id, Size: 16, Runtime: 1e6}, EnqueuedAt: time.Now()}
		batch, err := l.batcher.Enqueue(op)
		if err != nil {
			t.Fatal(err)
		}
		batch.Wait()
		if op.Err != nil {
			t.Fatal(op.Err)
		}
	}
	// Every job is held in the queue, so every job stays active.
	var body strings.Builder
	body.WriteString(`{"jobs":[`)
	for id := 1; id <= publishCheapThreshold+100; id++ {
		if id > 1 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `{"id":%d,"size":16,"runtime":1000000}`, id)
	}
	body.WriteString(`]}`)
	if code, res := postBatch(t, hs.URL, body.String()); code != http.StatusAccepted || res.Failed != 0 {
		t.Fatalf("backlog batch: %d, %d failed", code, res.Failed)
	}
	next := int64(publishCheapThreshold + 101)

	// burst drains n one-op batches back to back and reports how many
	// publishes they caused and whether the last write is still deferred.
	burst := func(n int) (publishes uint64, last int64, deferred bool) {
		seq := l.pub.Load().Seq
		for i := 0; i < n; i++ {
			submit(next)
			next++
		}
		v := l.pub.Load()
		_, visible := v.Jobs[next-1]
		return v.Seq - seq, next - 1, !visible
	}
	var last int64
	for try := 0; ; try++ {
		// Throttled, a publish costs at most 1/publishCostMultiple of the time
		// and comes at most once per publishMinInterval: far fewer than one
		// per two drains. A lane that flushes on going idle publishes after
		// nearly every one-op drain.
		publishes, id, deferred := burst(200)
		if publishes >= 100 {
			t.Fatalf("200 drains over %d active jobs caused %d publishes: not throttled", len(l.pub.Load().Jobs), publishes)
		}
		if last = id; deferred {
			break
		}
		if try == 10 {
			t.Fatal("no burst ever ended on a deferred publish")
		}
	}
	// No further traffic: the idle turn's deadline alone must make the write
	// visible.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := l.pub.Load().Jobs[last]; ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("deferred write of job %d never became visible", last)
		}
		time.Sleep(time.Millisecond)
	}

	// Fail and recover publish before they answer, throttle or not.
	node := `{"kind":"node","node":0}`
	for _, step := range []struct {
		path   string
		failed int
	}{{"/v1/fail", 1}, {"/v1/recover", 0}} {
		burst(20) // leave the lane inside a throttle interval
		postFailure(t, hs.URL+step.path, node)
		if got := l.pub.Load().Snap.FailedNodes; got != held+step.failed {
			t.Fatalf("%s answered with %d failed nodes published, want %d", step.path, got, held+step.failed)
		}
	}

	// A write still deferred at Close is published by the shutdown drain.
	_, last, _ = burst(20)
	s.Close()
	if _, ok := l.pub.Load().Jobs[last]; !ok {
		t.Fatalf("job %d, accepted before Close, is not in the final snapshot", last)
	}
}
