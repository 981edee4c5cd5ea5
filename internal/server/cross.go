package server

// Cross-shard placement (DESIGN.md §16): jobs wider than the widest cell are
// owned by the coordinator, one goroutine serving a strict FIFO. It is the
// only code that builds a partition from more than one engine's state, and
// the only code that ever holds more than one lane.
//
// One attempt (tryPlace) is four units, and every early exit is one of their
// return values:
//
//  1. compose — a pure function of the lanes' published Views. It runs
//     shard.ComposeSubPod over their per-pod free summaries and returns a
//     plan: the partition, the lanes that own its pods, and the StateVersion
//     each of those lanes' Views was read at. No lane is touched: an
//     infeasible answer parks nothing, so a stuck wide job costs shard-local
//     traffic nothing while it waits.
//  2. parkAll — pins the plan's member lanes, and only those, in ascending
//     index order. One coordinator, one fixed acquisition order, and lanes
//     that never wait on each other: the wait-for graph has no cycle. A
//     member that cannot be parked (its lane is closing) releases the ones
//     already held, in reverse.
//  3. confirm — the live check. The member clocks are brought to one instant
//     (which can itself start queued shard-local jobs). If every member's
//     StateVersion still equals its View's, nothing moved and the snapshot
//     plan stands. If one moved, the same composition runs again over the
//     parked members' live summaries; it uses only leaves and spine uplinks
//     those summaries report free, so its result is legal by construction
//     and needs no second check. No composition is the lost race: every
//     lane is released and place retries from fresh Views, up to
//     crossMaxValidateRetries per wake.
//  4. charge — splits the placement by cell, claims the job (the one
//     waiting→running transition, which a concurrent cancel loses or wins
//     whole), and starts each member's slice with the runtime computed once
//     at submit. Release then walks the lanes in descending order; each
//     publishes what it was charged before it resumes.
//
// Retries are event-driven: a lane publish that shows capacity coming back
// (completions, cancels, recoveries) rings the wake channel after the
// publish, so the woken compose always sees the freed capacity. The
// one-second failsafe rescan only backstops a lost wake.
//
// Wide jobs are served strictly FIFO among themselves and do not backfill
// around each other. A failure that hits one slice follows the owning
// shard's failure policy on that slice alone; surviving slices keep running,
// as the paper's per-partition fault containment has it.

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/partition"
	"repro/internal/scenario"
	"repro/internal/shard"
	"repro/internal/snapshot"
	"repro/internal/topology"
	"repro/internal/trace"
)

// crossFailsafeInterval backstops a lost wake while wide jobs wait. Normal
// retry pacing is the event-driven wake from lane publishes; this rescan only
// matters if every signal between two frees is somehow missed.
const crossFailsafeInterval = time.Second

// crossMaxValidateRetries bounds back-to-back reattempts when the live check
// keeps losing races against single-shard traffic. After the budget the
// coordinator waits for the next wake instead of spinning.
const crossMaxValidateRetries = 4

type crossState int

const (
	crossWaiting crossState = iota
	crossRunning
	crossCancelled
)

type crossJob struct {
	j       trace.Job
	eff     float64
	state   crossState
	members []int // owning lane indices once running
}

// coordinator owns every cross-shard job. fifo, jobs, closed and each job's
// state are behind mu; the run goroutine is the only caller of place.
type coordinator struct {
	s *Server

	mu     sync.Mutex
	fifo   []*crossJob
	jobs   map[int64]*crossJob
	closed bool

	// Counters for /v1/shards and /metrics, only ever incremented. attempts
	// counts tryPlace calls; infeasible the ones that composed no shape (and
	// parked nothing); conflicts the ones lost to a race after parking;
	// placed the successes, subpodPlaced the subset that used a partially-free
	// pod or a sub-pod tree shape (LT < LeavesPerPod), shrunkPlaced the
	// malleable jobs (Config.Elastic) placed below their requested size.
	placed       atomic.Int64
	subpodPlaced atomic.Int64
	shrunkPlaced atomic.Int64
	attempts     atomic.Int64
	infeasible   atomic.Int64
	conflicts    atomic.Int64

	wake chan struct{}
	quit chan struct{}
	done chan struct{}
}

func newCoordinator(s *Server) *coordinator {
	c := &coordinator{
		s:    s,
		jobs: map[int64]*crossJob{},
		wake: make(chan struct{}, 1),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	go c.run()
	return c
}

// signalWake nudges the placement goroutine; buffered-1 send coalesces
// bursts. Called from submit, cancel, and every lane's onFree hook.
func (c *coordinator) signalWake() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// close stops the placement goroutine. Waiting jobs stay queued (and are
// reported as such) — the daemon is shutting down. Safe to call twice.
func (c *coordinator) close() {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.quit)
	}
	c.mu.Unlock()
	<-c.done
}

// submit enqueues a wide job, its arrival already stamped by validateSubmit,
// and returns its queued status. The effective runtime is computed once here
// — every slice runs for the same duration.
func (c *coordinator) submit(j trace.Job) (engine.JobStatus, error) {
	cj := &crossJob{j: j, eff: j.Runtime}
	if c.s.cfg.ApplySpeedups {
		cj.eff = scenario.IsolatedRuntime(c.s.cfg.Scenario, j)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return engine.JobStatus{}, ErrClosed
	}
	c.fifo = append(c.fifo, cj)
	c.jobs[j.ID] = cj
	c.mu.Unlock()
	c.signalWake()
	return cj.queued(), nil
}

// queued is the job's status while no lane knows it.
func (cj *crossJob) queued() engine.JobStatus {
	return engine.JobStatus{Job: cj.j, State: engine.StateQueued, Runtime: cj.eff}
}

// waiting returns queued cross-shard jobs in FIFO order for the merged
// queue/cluster views.
func (c *coordinator) waiting() []engine.JobStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]engine.JobStatus, 0, len(c.fifo))
	for _, cj := range c.fifo {
		out = append(out, cj.queued())
	}
	return out
}

// crossStats is the coordinator's counter snapshot for /v1/shards and
// /metrics.
type crossStats struct {
	Waiting      int
	Placed       int64
	SubpodPlaced int64
	ShrunkPlaced int64
	Attempts     int64
	Infeasible   int64
	Conflicts    int64
}

// stats reports the coordinator counters.
func (c *coordinator) stats() crossStats {
	c.mu.Lock()
	waiting := len(c.fifo)
	c.mu.Unlock()
	return crossStats{
		Waiting:      waiting,
		Placed:       c.placed.Load(),
		SubpodPlaced: c.subpodPlaced.Load(),
		ShrunkPlaced: c.shrunkPlaced.Load(),
		Attempts:     c.attempts.Load(),
		Infeasible:   c.infeasible.Load(),
		Conflicts:    c.conflicts.Load(),
	}
}

// slices runs each (when not nil) and then a point lookup of job id on every
// member lane's engine goroutine, and returns the slices the lanes still know.
func (c *coordinator) slices(id int64, members []int, each func(*engine.Engine)) ([]engine.JobStatus, error) {
	sts := make([]engine.JobStatus, 0, len(members))
	for _, li := range members {
		var st engine.JobStatus
		var ok bool
		if err := c.s.lanes[li].do(func(e *engine.Engine) {
			if each != nil {
				each(e)
			}
			st, ok = e.Status(id)
		}); err != nil {
			return nil, err
		}
		if ok {
			sts = append(sts, st)
		}
	}
	return sts, nil
}

// status resolves a cross-owned job: queued and cancelled jobs answer from
// the registry; running jobs merge the member lanes' point lookups.
func (c *coordinator) status(id int64) (engine.JobStatus, error) {
	c.mu.Lock()
	cj, ok := c.jobs[id]
	if !ok {
		c.mu.Unlock()
		return engine.JobStatus{}, fmt.Errorf("unknown cross-shard job %d", id)
	}
	st, state, members := cj.queued(), cj.state, cj.members
	c.mu.Unlock()
	switch state {
	case crossWaiting:
		return st, nil
	case crossCancelled:
		st.State = engine.StateCancelled
		return st, nil
	}
	sts, err := c.slices(id, members, nil)
	if err != nil {
		return engine.JobStatus{}, err
	}
	if len(sts) == 0 {
		// The job reached crossRunning but no member lane knows it anymore:
		// every slice finished and was evicted. The job is over.
		st.State = engine.StateCompleted
		return st, nil
	}
	return snapshot.MergeStatuses(sts), nil
}

// cancel withdraws a cross-owned job: a waiting job is removed from the
// FIFO; a running job is cancelled slice-by-slice on its member lanes (each
// lane releases its slice's resources; the merged status is returned).
func (c *coordinator) cancel(id int64) (engine.JobStatus, error) {
	c.mu.Lock()
	cj, ok := c.jobs[id]
	if !ok {
		c.mu.Unlock()
		return engine.JobStatus{}, errUnknownJob(id)
	}
	switch cj.state {
	case crossWaiting:
		cj.state = crossCancelled
		c.fifo = slices.DeleteFunc(c.fifo, func(q *crossJob) bool { return q == cj })
		st := cj.queued()
		c.mu.Unlock()
		// The head may have changed; let the placement goroutine re-examine.
		c.signalWake()
		st.State = engine.StateCancelled
		return st, nil
	case crossCancelled:
		c.mu.Unlock()
		return engine.JobStatus{}, fmt.Errorf("job %d is already cancelled", id)
	}
	members := cj.members
	c.mu.Unlock()
	cancelled := 0
	var lastErr error
	sts, err := c.slices(id, members, func(e *engine.Engine) {
		if _, lastErr = e.Cancel(id); lastErr == nil {
			cancelled++
		}
	})
	switch {
	case err != nil:
		return engine.JobStatus{}, err
	case cancelled == 0:
		return engine.JobStatus{}, lastErr
	}
	return snapshot.MergeStatuses(sts), nil
}

// run is the placement goroutine: woken by submits, cancels, and lane
// publishes that free capacity; the failsafe ticker only backstops a lost
// wake while jobs wait.
func (c *coordinator) run() {
	defer close(c.done)
	ticker := time.NewTicker(crossFailsafeInterval)
	defer ticker.Stop()
	for {
		var failsafe <-chan time.Time // nil, so never ready, while nothing waits
		c.mu.Lock()
		if len(c.fifo) > 0 {
			failsafe = ticker.C
		}
		c.mu.Unlock()
		select {
		case <-c.quit:
			return
		case <-c.wake:
		case <-failsafe:
		}
		c.placeAll()
	}
}

// placeAll places FIFO heads until one does not fit (strict FIFO: a stuck
// wide job blocks the wide jobs behind it, never the single-shard traffic).
func (c *coordinator) placeAll() {
	for {
		select {
		case <-c.quit:
			return
		default:
		}
		c.mu.Lock()
		if len(c.fifo) == 0 {
			c.mu.Unlock()
			return
		}
		head := c.fifo[0]
		c.mu.Unlock()
		if !c.place(head) {
			return
		}
		c.mu.Lock()
		if len(c.fifo) > 0 && c.fifo[0] == head {
			c.fifo = c.fifo[1:]
		}
		c.mu.Unlock()
	}
}

// place attempts one placement for the head, retrying immediately on a lost
// race up to the budget. It returns true when the head is disposed of
// (started, or found cancelled), false when it must wait for the next wake.
func (c *coordinator) place(cj *crossJob) bool {
	// A head cancelled before this attempt must not keep the FIFO waiting on
	// its (possibly infeasible) shape.
	c.mu.Lock()
	cancelled := cj.state != crossWaiting
	c.mu.Unlock()
	if cancelled {
		return true
	}
	for try := 0; ; try++ {
		done, conflict := c.tryPlace(cj)
		if done {
			return true
		}
		if !conflict {
			return false
		}
		c.conflicts.Add(1)
		if try >= crossMaxValidateRetries {
			return false
		}
	}
}

// tryPlace runs one attempt: compose, parkAll, confirm, charge. Returns
// done=true when the head is disposed of (started, cancelled, or dropped on
// an internal error) and conflict=true when the live check lost a race and
// the caller should retry from fresh Views. (false, false) means wait for
// capacity: nothing composed (and nothing was parked finding that out), or a
// member lane is closing.
func (c *coordinator) tryPlace(cj *crossJob) (done, conflict bool) {
	c.attempts.Add(1)
	pl, err := compose(c.s.tree, c.s.cells, c.s.laneViews(), cj.j, c.s.cfg.Elastic)
	if errors.Is(err, errUnownedPod) {
		c.dropHead(cj, "compose refused", err) // a bug, not fragmentation: do not spin on it
		return true, false
	}
	if err != nil {
		c.infeasible.Add(1)
		return false, false
	}
	engs, release, err := parkAll(c.s.lanes, pl.members)
	if err != nil {
		return false, false
	}
	defer release()
	if pl = c.confirm(cj, pl, engs); pl == nil {
		return false, true
	}
	c.charge(cj, pl, engs)
	return true, false
}

// plan is what one attempt intends to charge: a legal partition, the size it
// carries (below the job's own for a shrunk malleable job), the lanes that
// own its pods in ascending order, and whether it counts as a sub-pod
// placement. versions[i] is the StateVersion of the View members[i] was read
// at; a plan recomposed on the live engines has none.
type plan struct {
	p        *partition.Partition
	size     int
	members  []int
	versions []uint64
	subpod   bool
}

// errUnownedPod is compose's refusal: the partition names a pod outside every
// cell.
var errUnownedPod = errors.New("server: composed partition uses a pod no lane owns")

// newPlan derives the member lanes and the sub-pod flag from a partition
// composed over cands. A placement is sub-pod when whole fully-free pods
// could not have produced it: a narrower tree width, or a chosen pod that was
// only partially free.
func newPlan(t *topology.FatTree, cells []shard.Cell, cands []topology.PodSummary, p *partition.Partition, size int) (*plan, error) {
	freeLeaves := make(map[int]int, len(cands))
	for _, ps := range cands {
		freeLeaves[ps.Pod] = ps.FreeLeaves
	}
	pl := &plan{p: p, size: size, subpod: p.LT < t.LeavesPerPod}
	member := make([]bool, len(cells))
	for _, tr := range p.Trees {
		li := shard.CellOf(cells, tr.Pod)
		if li < 0 {
			return nil, fmt.Errorf("%w: pod %d", errUnownedPod, tr.Pod)
		}
		member[li] = true
		if freeLeaves[tr.Pod] < t.LeavesPerPod {
			pl.subpod = true
		}
	}
	for li, m := range member {
		if m {
			pl.members = append(pl.members, li)
		}
	}
	return pl, nil
}

// compose searches the lanes' published Views (views[i] is lane i's) for a
// partition that fits j. Each View's pod summaries are exact at its
// StateVersion, which the plan records for confirm. An elastic job whose full
// size composes nothing falls to the largest whole-leaf size that does:
// ComposeSubPod hands out fully-free leaves, so only leaf multiples give
// distinct shapes, and the floor is the larger of the job's MinSize and one
// leaf. Any error other than errUnownedPod means "wait for capacity".
func compose(t *topology.FatTree, cells []shard.Cell, views []*snapshot.View, j trace.Job, elastic bool) (*plan, error) {
	var cands []topology.PodSummary
	for _, v := range views {
		cands = append(cands, v.Pods...)
	}
	size := j.Size
	p, err := shard.ComposeSubPod(t, cands, size)
	if err != nil && elastic {
		nl := t.NodesPerLeaf
		for s := (j.Size - 1) / nl * nl; s >= max(j.MinSize(), nl) && err != nil; s -= nl {
			if p, err = shard.ComposeSubPod(t, cands, s); err == nil {
				size = s
			}
		}
	}
	if err != nil {
		return nil, err
	}
	pl, err := newPlan(t, cells, cands, p, size)
	if err != nil {
		return nil, err
	}
	for _, li := range pl.members {
		pl.versions = append(pl.versions, views[li].StateVersion)
	}
	return pl, nil
}

// parkAll parks the member lanes in ascending order and returns their engines
// (indexed by lane; nil for lanes not parked) behind one release function,
// which resumes them in descending order. A member that cannot be parked
// releases the lower ones; higher ones are never touched.
func parkAll(lanes []*lane, members []int) ([]*engine.Engine, func(), error) {
	engs := make([]*engine.Engine, len(lanes))
	rels := make([]func(), 0, len(members))
	release := func() {
		for i := len(rels) - 1; i >= 0; i-- {
			rels[i]()
		}
	}
	for _, li := range members {
		eng, rel, err := lanes[li].park()
		if err != nil {
			release()
			return nil, nil, err
		}
		engs[li] = eng
		rels = append(rels, rel)
	}
	return engs, release, nil
}

// confirm is the live check, run under park. It brings the member clocks to
// the one instant the clock aligns them to (virtual: the furthest member
// clock or the job's arrival; wall: now) and then returns the plan to charge:
// pl itself when no member's state moved since its View, a plan recomposed
// over the members' live summaries when one did, nil when they no longer hold
// the job (the lost race).
func (c *coordinator) confirm(cj *crossJob, pl *plan, engs []*engine.Engine) *plan {
	latest := cj.j.Arrival
	for _, li := range pl.members {
		latest = max(latest, engs[li].Now())
	}
	now := c.s.clock.at(latest)
	moved := false
	for i, li := range pl.members {
		// Advancing the clock can start queued shard-local jobs, so the
		// version is read after it.
		engs[li].AdvanceTo(now)
		moved = moved || engs[li].StateVersion() != pl.versions[i]
	}
	if !moved {
		return pl
	}
	var live []topology.PodSummary
	for _, li := range pl.members {
		live = append(live, c.s.lanes[li].pub.PodSummaries(engs[li])...)
	}
	p, err := shard.ComposeSubPod(c.s.tree, live, pl.size)
	if err != nil {
		return nil
	}
	// Every live summary is a pod of a parked member, so newPlan cannot refuse.
	pl, _ = newPlan(c.s.tree, c.s.cells, live, p, pl.size)
	return pl
}

// claim is the one waiting→running transition. It fails when a cancel got
// there first, in which case nothing may be started.
func (c *coordinator) claim(cj *crossJob, members []int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cj.state != crossWaiting {
		return false
	}
	cj.state, cj.members = crossRunning, members
	return true
}

// charge starts the job on the confirmed plan: one slice per member engine,
// all for the same effective runtime. The head is disposed of either way — a
// job cancelled before the claim starts nothing.
func (c *coordinator) charge(cj *crossJob, pl *plan, engs []*engine.Engine) {
	demand := engs[pl.members[0]].Config().Alloc.State().Capacity
	slices, err := shard.SplitByCell(c.s.tree, c.s.cells, pl.p.Placement(c.s.tree, topology.JobID(cj.j.ID), demand))
	if err != nil || len(slices) != len(pl.members) {
		// Unreachable: newPlan derived the members from the pods SplitByCell walks.
		c.dropHead(cj, fmt.Sprintf("%d slices for %d members", len(slices), len(pl.members)), err)
		return
	}
	if !c.claim(cj, pl.members) {
		return
	}
	// Work conservation for a shrunk placement: the same total work on fewer
	// nodes runs proportionally longer.
	eff, shrunk := cj.eff, pl.size < cj.j.Size
	if shrunk {
		eff = cj.eff * float64(cj.j.Size) / float64(pl.size)
	}
	// Slices are rigid: malleability was resolved in compose, and a lane
	// engine resizing its slice on its own would break the coordinated shape.
	sj := cj.j
	sj.MinNodes, sj.MaxNodes = 0, 0
	for _, li := range pl.members {
		sj.Size = len(slices[li].Nodes)
		if _, err := engs[li].StartPlaced(sj, eff, slices[li]); err != nil {
			// Unreachable: gateway-unique IDs, resources confirmed under park.
			c.s.log.Error("cross-shard start failed", "job", cj.j.ID, "lane", li, "err", err)
		}
	}
	c.placed.Add(1)
	if pl.subpod {
		c.subpodPlaced.Add(1)
	}
	if shrunk {
		c.shrunkPlaced.Add(1)
	}
	c.s.log.Info("cross-shard placement", "job", cj.j.ID, "size", pl.size, "trees", len(pl.p.Trees), "lt", pl.p.LT,
		"lanes", len(pl.members), "subpod", pl.subpod, "shrunk", shrunk, "at", engs[pl.members[0]].Now())
}

// dropHead marks an unplaceable head cancelled so the FIFO keeps moving;
// only reachable on internal errors that would otherwise wedge the lane.
func (c *coordinator) dropHead(cj *crossJob, why string, err error) {
	c.s.log.Error("cross-shard head dropped: "+why, "job", cj.j.ID, "err", err)
	c.mu.Lock()
	cj.state = crossCancelled
	c.mu.Unlock()
}
