// Elastic (malleable) scheduling: the engine's shrink/grow/preempt moves and
// the deadline admission verdict (DESIGN.md §18). Everything in this file is
// doubly gated — Config.Elastic must be set AND the job must actually declare
// elastic fields (trace.Job MinNodes/MaxNodes/Priority/Deadline) — so a trace
// of rigid jobs schedules bit-for-bit identically with Elastic on or off: no
// extra allocator calls, no AllocCalls drift, no feasibility-cache churn.
//
// All three moves conserve work. A job resized from oldSize to newSize with
// remain seconds left keeps running with remain*oldSize/newSize seconds left
// (node-seconds preserved; perfectly-divisible scaling, the standard
// malleability model). A preempted victim checkpoints: it requeues with its
// effective runtime cut to the remaining time, so completed work is kept.
// Failure-shrink fallbacks requeue with the full runtime, matching
// FailRequeue — a failure destroys in-memory state, so an un-replaceable job
// restarts from scratch.
package engine

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Verdict is the deadline/SLA admission answer computed at submit time for
// elastic jobs that declare a deadline (Config.Elastic, trace.Job.Deadline).
type Verdict int

const (
	// VerdictNone marks jobs with no deadline (or a non-elastic engine).
	VerdictNone Verdict = iota
	// VerdictAccepted: the EASY-style earliest-start estimate has the job
	// completing by its deadline.
	VerdictAccepted
	// VerdictAtRisk: the job was admitted, but the estimate has it
	// completing after its deadline (the estimate ignores queued jobs, so
	// the true risk is at least this high).
	VerdictAtRisk
	// VerdictRejected: the job can provably never meet its deadline
	// (arrival + runtime already exceeds it) or never fits the machine at
	// all; it is refused at submit.
	VerdictRejected
)

// String returns the wire name used by the HTTP API ("" for VerdictNone).
func (v Verdict) String() string {
	switch v {
	case VerdictNone:
		return ""
	case VerdictAccepted:
		return "accepted"
	case VerdictAtRisk:
		return "accepted-at-risk"
	case VerdictRejected:
		return "rejected"
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// shrinkCand is a running job released by a failure and awaiting a shrink
// attempt on the post-failure state (Fail defers the search until the
// failure spec has been applied).
type shrinkCand struct {
	it     *jobItem
	remain float64
}

// allocateSized is allocate for an explicit size (elastic moves place a job
// at sizes other than Job.Size). It accounts AllocCalls and consults the
// negative-feasibility cache exactly like allocate, and adds the elastic
// legality guard: when the allocator exposes its partition search
// (alloc.PartitionFinder), the partition a same-state Allocate would charge
// is found first and independently re-verified with partition.Verify; a
// found-but-illegal partition (a search bug) is refused rather than charged,
// without poisoning the feasibility cache.
func (e *Engine) allocateSized(it *jobItem, size int) (*topology.Placement, bool) {
	e.acc.AllocCalls++
	if e.feasInfeasible(size, it.j.ID) {
		e.acc.FeasCacheHits++
		return nil, false
	}
	var t0 time.Time
	if e.cfg.MeasureAllocTime {
		t0 = time.Now()
	}
	id := topology.JobID(it.j.ID)
	var pl *topology.Placement
	ok, verifyReject := true, false
	if e.elasticPF != nil {
		p, found := e.elasticPF.FindJobPartition(id, size)
		if !found {
			ok = false
		} else if err := p.Verify(e.cfg.Alloc.Tree()); err != nil {
			ok, verifyReject = false, true
		}
	}
	if ok {
		pl, ok = e.cfg.Alloc.Allocate(id, size)
	}
	if e.cfg.MeasureAllocTime {
		e.acc.AllocSeconds += time.Since(t0).Seconds()
	}
	if e.feasClass != nil {
		e.acc.FeasCacheMisses++
		if !ok && !verifyReject {
			e.feasRecordFailure(size, it.j.ID)
		}
	}
	return pl, ok
}

// commitResize installs a running job's replacement placement at newSize with
// remain seconds left, preserving the job's original start time. The caller
// has already charged pl and detached any previous runningJob. Both epochs
// are bumped: the old placement's specific resources were released (a
// blocked head or a cached reservation clone may now be wrong).
func (e *Engine) commitResize(it *jobItem, pl *topology.Placement, newSize int, remain, now float64) {
	it.j.Size = newSize
	rj := &runningJob{it: it, pl: pl, start: it.start, end: now + remain}
	e.running[rj] = struct{}{}
	e.used += newSize
	e.pushUtil(now)
	it.state = StateRunning
	it.end = rj.end
	it.rj = rj
	e.events.Push(sim.Event{Time: rj.end, Prio: sim.PrioCompletion, Payload: rj})
	e.releaseEpoch++
	e.cancelEpoch++
}

// shrinkOne tries to re-place a failure-released malleable job on the
// surviving fabric at the largest legal size in [MinSize, Size] — Size
// itself included, a progress-preserving migration when the full size still
// fits elsewhere. On success the job keeps running with its remaining work
// conserved and counts as Shrunk; on failure the caller requeues it.
func (e *Engine) shrinkOne(it *jobItem, remain, now float64) bool {
	oldSize := it.j.Size
	hi := oldSize
	if free := e.cfg.Alloc.FreeNodes(); free < hi {
		hi = free // cheap necessary bound, like the reservation's
	}
	for s := hi; s >= it.j.MinSize(); s-- {
		pl, ok := e.allocateSized(it, s)
		if !ok {
			continue
		}
		e.commitResize(it, pl, s, remain*float64(oldSize)/float64(s), now)
		e.counts.Shrunk++
		return true
	}
	return false
}

// growPass offers free capacity to running malleable jobs once the queue has
// drained (queued jobs always have first claim on freed capacity — growing
// past a waiting job would starve it). Candidates are visited in job-ID
// order; each is grown to the largest size in (Size, MaxSize] that yields a
// legal placement, conserving its remaining work.
func (e *Engine) growPass(now float64) {
	if len(e.running) == 0 || e.cfg.Alloc.FreeNodes() == 0 {
		return
	}
	var cands []*runningJob
	for rj := range e.running {
		if rj.it.j.MaxSize() > rj.it.j.Size && rj.end-now > timeEps {
			cands = append(cands, rj)
		}
	}
	if len(cands) == 0 {
		return
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].it.j.ID < cands[j].it.j.ID })
	for _, rj := range cands {
		e.tryGrow(rj, now)
	}
}

// tryGrow attempts to expand one running job. The old placement must be
// released before searching (its nodes may seed the larger partition), so
// the attempt runs inside an undo transaction when the allocator supports
// one, and otherwise restores the old placement with Mirror on failure.
func (e *Engine) tryGrow(rj *runningJob, now float64) bool {
	it := rj.it
	cur := it.j.Size
	hi := it.j.MaxSize()
	if m := cur + e.cfg.Alloc.FreeNodes(); m < hi {
		hi = m
	}
	if hi <= cur {
		return false
	}
	remain := rj.end - now
	commit := func(pl *topology.Placement, s int) {
		e.detachRunning(rj)
		e.commitResize(it, pl, s, remain*float64(cur)/float64(s), now)
		e.counts.Grown++
	}
	if e.txnAlloc != nil {
		a := e.txnAlloc
		a.Begin()
		a.Release(rj.pl)
		for s := hi; s > cur; s-- {
			pl, ok := e.allocateSized(it, s)
			if !ok {
				continue
			}
			a.Commit()
			commit(pl, s)
			return true
		}
		a.Rollback()
		return false
	}
	e.cfg.Alloc.Release(rj.pl)
	for s := hi; s > cur; s-- {
		pl, ok := e.allocateSized(it, s)
		if !ok {
			continue
		}
		commit(pl, s)
		return true
	}
	e.cfg.Alloc.Mirror(rj.pl) // restore: the released resources are still free
	return false
}

// detachRunning tombstones a running job's current incarnation (its pending
// completion event is skipped when popped) without releasing its placement —
// the caller has already released or committed over it.
func (e *Engine) detachRunning(rj *runningJob) {
	delete(e.running, rj)
	e.used -= rj.it.j.Size
	rj.it.rj = nil
	rj.tombstone()
}

// urgent reports whether a blocked head may preempt: positive priority
// always may; a default-priority deadline job may while starting now would
// still meet the deadline (once the deadline is unachievable, displacing
// other work buys nothing).
func (e *Engine) urgent(head *jobItem, now float64) bool {
	if head.j.Priority > 0 {
		return true
	}
	return head.j.Deadline > 0 && now+head.eff <= head.j.Deadline+timeEps
}

// tryPreempt checkpoint-requeues strictly-lower-priority running jobs to
// make room for a blocked urgent head. Victims are released one at a time —
// cheapest first (lowest priority, then largest size, then lowest ID) — and
// the head is retried after each, so only the minimal prefix is displaced.
// On success the displaced victims requeue with their remaining runtime
// (checkpointed) and the head's charged placement is returned; on failure
// every release is undone and nothing observable changes.
func (e *Engine) tryPreempt(head *jobItem, now float64) (*topology.Placement, bool) {
	if !e.urgent(head, now) {
		return nil, false
	}
	var victims []*runningJob
	for rj := range e.running {
		if rj.it.j.Priority < head.j.Priority && rj.end-now > timeEps {
			victims = append(victims, rj)
		}
	}
	if len(victims) == 0 {
		return nil, false
	}
	sort.Slice(victims, func(i, j int) bool {
		a, b := victims[i].it.j, victims[j].it.j
		if a.Priority != b.Priority {
			return a.Priority < b.Priority
		}
		if a.Size != b.Size {
			return a.Size > b.Size
		}
		return a.ID < b.ID
	})
	if e.txnAlloc != nil {
		a := e.txnAlloc
		a.Begin()
		for i, v := range victims {
			a.Release(v.pl)
			if e.cfg.Alloc.FreeNodes() < head.j.Size {
				continue
			}
			pl, ok := e.allocateSized(head, head.j.Size)
			if !ok {
				continue
			}
			a.Commit()
			e.finishPreempt(victims[:i+1], now)
			return pl, true
		}
		a.Rollback()
		return nil, false
	}
	for i, v := range victims {
		e.cfg.Alloc.Release(v.pl)
		if e.cfg.Alloc.FreeNodes() >= head.j.Size {
			if pl, ok := e.allocateSized(head, head.j.Size); ok {
				e.finishPreempt(victims[:i+1], now)
				return pl, true
			}
		}
		continue
	}
	for i := len(victims) - 1; i >= 0; i-- {
		e.cfg.Alloc.Mirror(victims[i].pl)
	}
	return nil, false
}

// finishPreempt checkpoint-requeues the released victims (their placements
// are already off the state): each goes to the back of the queue with its
// effective runtime cut to the remaining time, preserving completed work.
func (e *Engine) finishPreempt(released []*runningJob, now float64) {
	for _, rj := range released {
		it := rj.it
		it.eff = rj.end - now
		e.detachRunning(rj)
		it.state = StateQueued
		it.start, it.end = 0, 0
		e.queue = append(e.queue, it)
		e.counts.Preempted++
	}
	e.pushUtil(now)
	e.releaseEpoch++
	e.cancelEpoch++
}

// admit computes the submit-time deadline verdict for a job that declared
// one. VerdictRejected is definitive (deadline arithmetic, or the job never
// fits a drained machine); Accepted vs AtRisk is advisory — the earliest-
// start estimate replays only the running set, EASY-style, and ignores the
// queue, so it is a lower bound on the true start time.
func (e *Engine) admit(it *jobItem) {
	j := it.j
	if j.Arrival+it.eff > j.Deadline+timeEps {
		it.verdict = VerdictRejected
		return
	}
	est, fits := e.earliestStart(it)
	if !fits {
		it.verdict = VerdictRejected
		return
	}
	if est < j.Arrival {
		est = j.Arrival
	}
	if est+it.eff <= j.Deadline+timeEps {
		it.verdict = VerdictAccepted
	} else {
		it.verdict = VerdictAtRisk
	}
}

// earliestStart estimates the earliest time the job could start given the
// predicted completions of the running set: a fits-now probe, then the
// reservation replay (release completions in end-time order, retry after
// each batch). Probes are advisory — they do not count as AllocCalls and do
// not consult or feed the feasibility cache — and run transactionally on the
// live state when possible, on a clone otherwise.
func (e *Engine) earliestStart(it *jobItem) (float64, bool) {
	size := it.j.Size
	id := topology.JobID(it.j.ID)
	if e.txnAlloc != nil {
		a := e.txnAlloc
		byEnd := e.sortedByEnd()
		a.Begin()
		est, ok := 0.0, false
		if a.FreeNodes() >= size {
			if pl, fits := a.Allocate(id, size); fits {
				a.Release(pl)
				est, ok = e.now, true
			}
		}
		for i := 0; !ok && i < len(byEnd); {
			t := byEnd[i].end
			for i < len(byEnd) && byEnd[i].end == t {
				a.Release(byEnd[i].pl)
				i++
			}
			if a.FreeNodes() < size {
				continue
			}
			if pl, fits := a.Allocate(id, size); fits {
				a.Release(pl)
				est, ok = t, true
			}
		}
		a.Rollback()
		e.dropScratch(byEnd)
		return est, ok
	}
	snap := e.cfg.Alloc.Clone()
	byEnd := e.sortedByEnd()
	defer e.dropScratch(byEnd)
	if snap.FreeNodes() >= size {
		if _, fits := snap.Allocate(id, size); fits {
			return e.now, true
		}
	}
	for i := 0; i < len(byEnd); {
		t := byEnd[i].end
		for i < len(byEnd) && byEnd[i].end == t {
			snap.Release(byEnd[i].pl)
			i++
		}
		if snap.FreeNodes() < size {
			continue
		}
		if _, fits := snap.Allocate(id, size); fits {
			return t, true
		}
	}
	return 0, false
}

// VisitPlacements calls fn for every running job in ascending job-ID order
// with its live placement. Read-only: fn must not mutate the placement or
// call back into the engine. Test harnesses use it to audit that running
// placements remain legal (partition.Verify) after elastic moves.
func (e *Engine) VisitPlacements(fn func(j trace.Job, pl *topology.Placement)) {
	rjs := make([]*runningJob, 0, len(e.running))
	for rj := range e.running {
		rjs = append(rjs, rj)
	}
	sort.Slice(rjs, func(i, j int) bool { return rjs[i].it.j.ID < rjs[j].it.j.ID })
	for _, rj := range rjs {
		fn(rj.it.j, rj.pl)
	}
}
