// Elastic (malleable) scheduling: the engine's shrink/grow/preempt moves and
// the deadline admission verdict (DESIGN.md §17). Everything in this file is
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
	// the true risk is at least this high) — or has no start time at all
	// until an active failure is recovered.
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
	e.touch(it)
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
		pl, ok := e.place(it, s, true, false)
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
// released before searching (its nodes may seed the larger partition); when
// no larger size places, Mirror charges it back — the released resources are
// still free — and nothing observable has changed.
func (e *Engine) tryGrow(rj *runningJob, now float64) bool {
	it := rj.it
	cur := it.j.Size
	hi := min(it.j.MaxSize(), cur+e.cfg.Alloc.FreeNodes())
	if hi <= cur {
		return false
	}
	remain := rj.end - now
	e.cfg.Alloc.Release(rj.pl)
	for s := hi; s > cur; s-- {
		pl, ok := e.place(it, s, true, false)
		if !ok {
			continue
		}
		e.detachRunning(rj)
		e.commitResize(it, pl, s, remain*float64(cur)/float64(s), now)
		e.counts.Grown++
		return true
	}
	e.cfg.Alloc.Mirror(rj.pl)
	return false
}

// detachRunning takes a running job's current incarnation off the books —
// out of the running set and the used-node count, its pending completion
// event tombstoned — without releasing its placement: the caller has already
// released or committed over it.
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
// the victims' placements are charged back with Mirror, newest release
// first, and nothing observable changes.
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
	for i, v := range victims {
		e.cfg.Alloc.Release(v.pl)
		if e.cfg.Alloc.FreeNodes() < head.j.Size {
			continue
		}
		if pl, ok := e.place(head, head.j.Size, true, false); ok {
			e.finishPreempt(victims[:i+1], now)
			return pl, true
		}
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
		e.requeue(it)
		e.counts.Preempted++
	}
	e.pushUtil(now)
	e.releaseEpoch++
	e.cancelEpoch++
}

// admit computes the submit-time deadline verdict for a job that declared
// one. VerdictRejected is definitive (deadline arithmetic, or the job never
// fits a drained, healthy machine); Accepted vs AtRisk is advisory — the
// earliest-start estimate replays only the running set, EASY-style, and
// ignores the queue, so it is a lower bound on the true start time.
func (e *Engine) admit(it *jobItem) {
	j := it.j
	if j.Arrival+it.eff > j.Deadline+timeEps {
		it.verdict = VerdictRejected
		return
	}
	est, fits := e.earliestStart(it)
	if !fits {
		// Even a drained machine does not hold the job. On a healthy fabric
		// that is "never"; on a degraded one recovery may restore the
		// capacity, so the job is queued and held like its rigid twin
		// (scheduleQueue) instead of being refused.
		it.verdict = VerdictRejected
		if e.Degraded() {
			it.verdict = VerdictAtRisk
		}
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
// completion replay. Probes are advisory — they do not count as AllocCalls
// and do not consult or feed the feasibility cache.
func (e *Engine) earliestStart(it *jobItem) (float64, bool) {
	a, discard := e.whatIf()
	defer discard()
	if a.FreeNodes() >= it.j.Size {
		if pl, fits := a.Allocate(topology.JobID(it.j.ID), it.j.Size); fits {
			a.Release(pl)
			return e.now, true
		}
	}
	return e.replay(a, it)
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
