package engine_test

// Edge tests for the two rules that let the negative-feasibility memo cover a
// whole backfill scan (DESIGN.md §11): a probe the scan charged and released
// again does not end the memo, and a refused displacement check is a verdict
// of its own, dropped when the live state changes or the reservation is
// recomputed. Every test runs one script on a memoizing engine and on the
// uncached reference and demands equal snapshots after every step, equal
// AllocCalls, and equal ledgers after the drain; the counters of the
// memoizing engine then say which attempts were answered without a search.

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/lcs"
	"repro/internal/topology"
	"repro/internal/trace"
)

// twin is a memoizing engine and the uncached reference, driven in lockstep.
type twin struct {
	t             *testing.T
	cached, plain *engine.Engine
}

func newTwin(t *testing.T, policy string, tree *topology.FatTree, cfg engine.Config) twin {
	t.Helper()
	cfg.History = true
	cfg.Alloc = newPolicy(t, policy, tree)
	cached := mkEngine(t, cfg)
	cfg.Alloc = newUncached(t, policy, tree)
	return twin{t: t, cached: cached, plain: mkEngine(t, cfg)}
}

// do applies one step to both engines and compares what an observer sees.
func (w twin) do(what string, step func(e *engine.Engine)) {
	w.t.Helper()
	step(w.cached)
	step(w.plain)
	if c, p := w.cached.Snapshot(), w.plain.Snapshot(); !sameSnapshots(c, p) {
		w.t.Fatalf("after %s: snapshots diverge\ncached:   %+v\nuncached: %+v", what, c, p)
	}
	if c, p := w.cached.Accounting().AllocCalls, w.plain.Accounting().AllocCalls; c != p {
		w.t.Fatalf("after %s: AllocCalls diverge: cached %d, uncached %d", what, c, p)
	}
}

func (w twin) submit(j trace.Job) {
	w.t.Helper()
	w.do("submit", func(e *engine.Engine) {
		if err := e.Submit(j); err != nil {
			w.t.Fatal(err)
		}
	})
}

func (w twin) advance(to float64) {
	w.t.Helper()
	w.do("advance", func(e *engine.Engine) { e.AdvanceTo(to) })
}

func (w twin) cancel(id int64) {
	w.t.Helper()
	w.do("cancel", func(e *engine.Engine) {
		if _, err := e.Cancel(id); err != nil {
			w.t.Fatal(err)
		}
	})
}

// want asserts job states on both engines.
func (w twin) want(states map[int64]engine.State) {
	w.t.Helper()
	for id, want := range states {
		if got := stateOf(w.t, w.cached, id); got != want {
			w.t.Errorf("cached: job %d = %v, want %v", id, got, want)
		}
		if got := stateOf(w.t, w.plain, id); got != want {
			w.t.Errorf("uncached: job %d = %v, want %v", id, got, want)
		}
	}
}

// memo returns the memoizing engine's hit, miss and invalidation counts.
func (w twin) memo() (hits, misses, invalidations int) {
	a := w.cached.Accounting()
	return a.FeasCacheHits, a.FeasCacheMisses, a.FeasCacheInvalidations
}

// since runs step and returns how many attempts the memo answered (hits) and
// how many reached the allocator (misses) during it.
func (w twin) since(step func()) (hits, misses int) {
	w.t.Helper()
	h0, m0, _ := w.memo()
	step()
	h1, m1, _ := w.memo()
	return h1 - h0, m1 - m0
}

// drain runs both engines dry and compares the complete ledgers.
func (w twin) drain() {
	w.t.Helper()
	drainPair(w.t, "twin", "drain", 0, w.cached, w.plain)
}

// Job IDs of the scene every test starts from, on the radix-8 tree (128
// nodes: 8 pods of 16). Two running jobs leave 4 pods free; the head needs 7
// pods, which the machine has only once jobLong ends, so the shadow time is
// 1000 and the shadow-time machine has one pod to spare for candidates that
// run past it. A 32-node candidate that does so fits now and displaces the
// head; a 16-node one fits and does not.
const (
	jobLong  = 1 // 48 nodes until t=1000
	jobBrief = 2 // 16 nodes until t=50
	jobHead  = 3 // 112 nodes, blocked
	past     = 5000.0
)

// blockedHeadScene submits the scene; briefMin makes jobBrief malleable down
// to that many nodes (0: rigid).
func blockedHeadScene(t *testing.T, policy string, cfg engine.Config, briefMin int) twin {
	t.Helper()
	w := newTwin(t, policy, topology.MustNew(8), cfg)
	w.submit(trace.Job{ID: jobLong, Size: 48, Runtime: 1000})
	w.submit(trace.Job{ID: jobBrief, Size: 16, Runtime: 50, MinNodes: briefMin})
	w.submit(trace.Job{ID: jobHead, Size: 112, Runtime: 100})
	return w
}

// candidateIDs returns three job IDs for same-size candidates: first and same
// share a feasibility class under the link-sharing policies (the bandwidth
// class lcs.DemandFor hashes from the ID), other is in a different one. The
// remaining policies have one class, so any IDs do.
func candidateIDs() (first, other, same int64) {
	first, other = 10, 11
	for lcs.DemandFor(topology.JobID(other)) == lcs.DemandFor(topology.JobID(first)) {
		other++
	}
	same = other + 1
	for lcs.DemandFor(topology.JobID(same)) != lcs.DemandFor(topology.JobID(first)) {
		same++
	}
	return first, other, same
}

// TestFeasScanSecondLongCandidateHits is rule 1 and rule 2 in one scan, on
// every policy (Baseline and LaaS keep "no placement" as a threshold, the
// rest in the map): the first 32-node candidate past the shadow time is
// searched, charged, refused by the displacement check and released; the
// second is answered by the memo. The refused probe took and returned resources, which
// at the parent commit cleared the memo (the head's "no placement" was in it):
// the invalidation count pins that it no longer does.
func TestFeasScanSecondLongCandidateHits(t *testing.T) {
	for _, policy := range allPolicies {
		t.Run(policy, func(t *testing.T) {
			w := blockedHeadScene(t, policy, engine.Config{}, 0)
			first, _, same := candidateIDs()
			w.submit(trace.Job{ID: first, Size: 32, Runtime: past})
			w.submit(trace.Job{ID: same, Size: 32, Runtime: past})
			hits, misses := w.since(func() { w.advance(0) })
			w.want(map[int64]engine.State{
				jobLong: engine.StateRunning, jobBrief: engine.StateRunning, jobHead: engine.StateQueued,
				first: engine.StateQueued, same: engine.StateQueued,
			})
			// Searches: the two starts, the head, first. same is the hit.
			if hits != 1 || misses != 4 {
				t.Errorf("hits, misses = %d, %d, want 1, 4", hits, misses)
			}
			if _, _, inv := w.memo(); inv != 0 {
				t.Errorf("the refused probe's take and return invalidated the memo %d times", inv)
			}
			w.drain()
		})
	}
}

// TestFeasScanArrivalOnlyStepSearchesNothing: a step that only delivers an
// arrival changes neither the live state nor the reservation, so the rescan
// of the window is answered entirely by the memo — both kinds of verdict.
func TestFeasScanArrivalOnlyStepSearchesNothing(t *testing.T) {
	w := blockedHeadScene(t, "Jigsaw", engine.Config{}, 0)
	w.submit(trace.Job{ID: 10, Size: 32, Runtime: past}) // displaces
	w.submit(trace.Job{ID: 11, Size: 80, Runtime: 10})   // no placement: 64 free
	w.submit(trace.Job{ID: 12, Size: 32, Arrival: 1, Runtime: past})
	w.advance(0)
	hits, misses := w.since(func() { w.advance(1) })
	if hits != 3 || misses != 0 {
		t.Errorf("arrival-only step: hits, misses = %d, %d, want 3, 0", hits, misses)
	}
	w.want(map[int64]engine.State{10: engine.StateQueued, 11: engine.StateQueued, 12: engine.StateQueued})
	w.drain()
}

// TestFeasScanDisplacementVerdictDropped: every event that can change the
// answer of a displacement check ends the verdict. The queue behind the head
// is job 9 (96 nodes, brief: no placement in the 64 free), job 10 (32 nodes
// past the shadow time: refused) and job 11 (the same: a hit). Each case
// applies one event and counts the rescan: job 10 must reach the allocator
// again instead of being answered by the old verdict, and job 11 behind it is
// answered by the fresh one where job 10 was refused again.
func TestFeasScanDisplacementVerdictDropped(t *testing.T) {
	spare := topology.NodeFailure(127) // in a pod no job holds
	queued := map[int64]engine.State{jobHead: engine.StateQueued, 9: engine.StateQueued, 10: engine.StateQueued, 11: engine.StateQueued}
	cases := []struct {
		name         string
		cfg          engine.Config
		briefMin     int
		event        func(w twin)
		hits, misses int
		want         map[int64]engine.State
	}{
		{
			// Live returns: jobBrief ends at t=50. The reservation stays (its
			// replay predicted this completion). Searched: head, 9, 10.
			name:  "natural completion",
			event: func(w twin) { w.advance(50) },
			hits:  1, misses: 3,
			want: queued,
		},
		{
			// Live and clone both change: job 12 (16 nodes past the shadow
			// time, the spare pod) arrives last in the window and is admitted —
			// 9, 10 and 11 were hits before it. The next arrival's rescan
			// searches 9, 10 and the arrival; 11 hits the fresh verdict.
			name: "admitted long backfill",
			event: func(w twin) {
				w.submit(trace.Job{ID: 12, Size: 16, Arrival: 1, Runtime: past})
				w.advance(1)
				w.want(map[int64]engine.State{12: engine.StateRunning})
				w.submit(trace.Job{ID: 13, Size: 1, Arrival: 2, Runtime: 1})
				w.advance(2)
			},
			hits: 3 + 1, misses: 1 + 3,
			want: queued,
		},
		{
			// New reservation, live state untouched — the case only the drop
			// where the reservation is recomputed catches. Job 9 is the head
			// now ("no placement" is still cached: a hit) and leaves two pods
			// spare at the shadow time, so job 10 is searched and admitted; job
			// 11 finds the machine changed and is refused on its own search.
			name:  "queued head cancelled",
			event: func(w twin) { w.cancel(jobHead) },
			hits:  1, misses: 2,
			want: map[int64]engine.State{9: engine.StateQueued, 10: engine.StateRunning, 11: engine.StateQueued},
		},
		{
			name:  "running job cancelled",
			event: func(w twin) { w.cancel(jobBrief) },
			hits:  1, misses: 3,
			want: queued,
		},
		{
			// Each of the two searches head, 9 and 10 afresh.
			name: "fail and recover",
			event: func(w twin) {
				w.do("fail", func(e *engine.Engine) {
					if _, err := e.Fail(spare); err != nil {
						w.t.Fatal(err)
					}
				})
				w.do("recover", func(e *engine.Engine) {
					if err := e.Recover(spare); err != nil {
						w.t.Fatal(err)
					}
				})
			},
			hits: 2, misses: 6,
			want: queued,
		},
		{
			// jobBrief is malleable; failing one of its nodes re-places it at
			// 12 nodes on the live state (one search), then head, 9 and 10.
			name:     "elastic shrink",
			cfg:      engine.Config{Elastic: true, OnFailure: engine.FailShrink},
			briefMin: 4,
			event: func(w twin) {
				var victim topology.NodeID
				w.cached.VisitPlacements(func(j trace.Job, pl *topology.Placement) {
					if j.ID == jobBrief {
						victim = pl.Nodes[0]
					}
				})
				w.do("fail", func(e *engine.Engine) {
					rep, err := e.Fail(topology.NodeFailure(victim))
					if err != nil || rep.Shrunk != 1 {
						w.t.Fatalf("Fail = %+v, %v, want one shrink", rep, err)
					}
				})
			},
			hits: 1, misses: 1 + 3,
			want: queued,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := blockedHeadScene(t, "Jigsaw", c.cfg, c.briefMin)
			w.submit(trace.Job{ID: 9, Size: 96, Runtime: 100})
			w.submit(trace.Job{ID: 10, Size: 32, Runtime: past})
			w.submit(trace.Job{ID: 11, Size: 32, Runtime: past})
			if hits, _ := w.since(func() { w.advance(0) }); hits != 1 {
				t.Fatalf("setup: hits = %d, want job 11 answered by job 10's verdict", hits)
			}
			hits, misses := w.since(func() { c.event(w) })
			if hits != c.hits || misses != c.misses {
				t.Errorf("hits, misses = %d, %d, want %d, %d", hits, misses, c.hits, c.misses)
			}
			w.want(c.want)
			w.drain()
		})
	}
}

// TestFeasScanShortCandidateIgnoresDisplacesVerdict: "displaces" refuses only
// candidates that run past the shadow time. A same-size candidate that ends
// before it shares the key, is searched all the same, and starts.
func TestFeasScanShortCandidateIgnoresDisplacesVerdict(t *testing.T) {
	w := blockedHeadScene(t, "Jigsaw", engine.Config{}, 0)
	w.submit(trace.Job{ID: 10, Size: 32, Runtime: past})
	w.submit(trace.Job{ID: 11, Size: 32, Runtime: past})
	w.submit(trace.Job{ID: 12, Size: 32, Runtime: 10})
	hits, misses := w.since(func() { w.advance(0) })
	if hits != 1 || misses != 5 {
		t.Errorf("hits, misses = %d, %d, want 1 (job 11), 5 (two starts, head, jobs 10 and 12)", hits, misses)
	}
	w.want(map[int64]engine.State{10: engine.StateQueued, 11: engine.StateQueued, 12: engine.StateRunning})
	w.drain()
}

// TestFeasScanVerdictsArePerClass: under the link-sharing policies two
// same-size jobs in different bandwidth classes are different questions, for
// the displacement verdict as for "no placement".
func TestFeasScanVerdictsArePerClass(t *testing.T) {
	for _, policy := range []string{"Jigsaw+S", "LC+S"} {
		t.Run(policy, func(t *testing.T) {
			w := blockedHeadScene(t, policy, engine.Config{}, 0)
			first, other, same := candidateIDs()
			for _, id := range []int64{first, other, same} {
				w.submit(trace.Job{ID: id, Size: 32, Runtime: past})
			}
			hits, misses := w.since(func() { w.advance(0) })
			// Searches: two starts, the head, first, other. Only same hits.
			if hits != 1 || misses != 5 {
				t.Errorf("hits, misses = %d, %d, want 1, 5", hits, misses)
			}
			w.want(map[int64]engine.State{first: engine.StateQueued, other: engine.StateQueued, same: engine.StateQueued})
			w.drain()
		})
	}
}
