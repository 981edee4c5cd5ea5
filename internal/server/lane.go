package server

// A lane is one shard's scheduling engine plus the machinery that makes it a
// service: the goroutine that owns the engine, the bounded ingest queue in
// front of it, the RCU snapshot publisher behind it, and the per-lane latency
// instruments. The Server (server.go) is a routing gateway over its lanes and
// never touches an engine except through one.

import (
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/shard"
	"repro/internal/snapshot"
)

// engineReq is one admin closure headed for a lane's engine goroutine.
type engineReq struct {
	fn  func(*engine.Engine)
	ran chan struct{}
}

// lane is one engine, its owning goroutine, and its front-door queues.
// All publish/drain bookkeeping fields are engine-goroutine-only.
type lane struct {
	idx          int
	cell         shard.Cell
	virtualClock bool
	nowFunc      func() float64

	eng  *engine.Engine
	reqs chan engineReq
	quit chan struct{}
	done chan struct{}

	batcher *ingest.Batcher
	applier *ingest.Applier
	pub     *snapshot.Publisher
	// lastPublish / publishPending / publishCost implement the deep-backlog
	// publish throttle; engine goroutine only. See publishAfterDrain.
	// publishPending means a publish is owed: one the throttle deferred, or
	// events the wall clock delivered just before an admin closure.
	lastPublish    time.Time
	publishPending bool
	publishCost    time.Duration

	// onFree, set once before the loop starts (a server with a coordinator
	// points it at the coordinator's wake), is called from the engine
	// goroutine after a publish whose snapshot shows capacity coming back:
	// free nodes up, or failed resources down. Completions, cancels, and
	// recoveries all publish, so every event that could unblock a waiting
	// wide job rings the bell — and it rings only *after* the publish, so
	// the woken coordinator's snapshot read always sees the freed capacity.
	onFree func()
	// lastFreeNodes / lastFailedRes are the previous published snapshot's
	// figures, for the onFree edge detection. Engine-goroutine only.
	lastFreeNodes int
	lastFailedRes int

	// parks counts coordinator park() calls on this lane — the price wide
	// jobs charge this lane's single-shard traffic. Exposed in metrics; the
	// zero-park-on-infeasible test pins that snapshot-guided candidate
	// search keeps it at zero when a wide job cannot place.
	parks atomic.Int64

	latency   *latencyHist // engine time per scheduling request
	queueWait *latencyHist // wait in the ingest queue before the op runs

	// drainRate is an EWMA of the lane's drain throughput in ops/sec
	// (float64 bits), written by the engine goroutine after each drain and
	// read by HTTP goroutines to derive Retry-After on 429 (see
	// retryAfterSeconds). lastDrainEnd is engine-goroutine-only state.
	drainRate    atomic.Uint64
	lastDrainEnd time.Time
}

func newLane(idx int, cell shard.Cell, eng *engine.Engine, virtualClock bool,
	nowFunc func() float64, ingestQueue, maxBatch int) *lane {
	return &lane{
		idx:          idx,
		cell:         cell,
		virtualClock: virtualClock,
		nowFunc:      nowFunc,
		eng:          eng,
		reqs:         make(chan engineReq),
		quit:         make(chan struct{}),
		done:         make(chan struct{}),
		batcher:      ingest.NewBatcher(ingestQueue, maxBatch),
		applier:      ingest.NewApplier(eng),
		pub:          snapshot.NewPublisher(eng),
		latency:      newLatencyHist(),
		queueWait:    newLatencyHist(),
	}
}

// close stops the lane's engine goroutine. Operations already accepted into
// the ingest queue are applied and answered before it stops. Safe to call
// more than once.
func (l *lane) close() {
	select {
	case <-l.quit:
	default:
		close(l.quit)
	}
	<-l.done
}

// loop is the engine goroutine: the only code that touches l.eng.
func (l *lane) loop() {
	defer close(l.done)
	if l.virtualClock {
		l.loopVirtual()
	} else {
		l.loopWall()
	}
}

func (l *lane) loopVirtual() {
	var buf []*ingest.Op
	steps := 0
	for {
		// Queued work takes priority; otherwise fast-forward one event.
		select {
		case first := <-l.batcher.C():
			buf = l.applyBatch(first, buf)
			continue
		case r := <-l.reqs:
			l.runAdmin(r)
			continue
		case <-l.quit:
			l.shutdownDrain(buf)
			return
		default:
		}
		if _, ok := l.eng.Step(); ok {
			// Publish periodically mid-replay so snapshot readers are
			// never more than a bounded number of events stale.
			if steps++; steps >= publishEveryStepsVirtual {
				l.publishNow()
				steps = 0
			}
			continue
		}
		// Idle: make the fully-stepped state visible, then wait. A drain or an
		// admin closure that stepped nothing afterwards has already published
		// what it changed.
		if steps > 0 || l.publishPending {
			l.publishNow()
			steps = 0
		}
		select {
		case first := <-l.batcher.C():
			buf = l.applyBatch(first, buf)
		case r := <-l.reqs:
			l.runAdmin(r)
		case <-l.quit:
			l.shutdownDrain(buf)
			return
		}
	}
}

func (l *lane) loopWall() {
	var buf []*ingest.Op
	for {
		// Chase the real clock; publish only if time delivered events.
		if l.eng.AdvanceTo(l.nowFunc()) > 0 {
			l.publishNow()
		}
		// Storm fast path: while work is already queued, keep draining
		// without paying for timer churn. Admin requests share the poll so
		// they cannot starve behind a sustained ingest storm.
		select {
		case first := <-l.batcher.C():
			buf = l.applyBatch(first, buf)
			continue
		case r := <-l.reqs:
			l.runAdmin(r)
			continue
		case <-l.quit:
			l.shutdownDrain(buf)
			return
		default:
		}
		// Flush a throttled publish once its interval has passed; otherwise
		// fold the flush deadline into the wake timer so readers see the
		// settled state even if no further drain arrives.
		flushIn := time.Duration(-1)
		if l.publishPending {
			if flushIn = l.publishInterval() - time.Since(l.lastPublish); flushIn <= 0 {
				l.publishNow()
				flushIn = -1
			}
		}
		var wake <-chan time.Time
		var timer *time.Timer
		if t, ok := l.eng.NextEventTime(); ok {
			d := time.Duration((t - l.nowFunc()) * float64(time.Second))
			if d < 0 {
				d = 0
			}
			if flushIn >= 0 && flushIn < d {
				d = flushIn
			}
			timer = time.NewTimer(d)
			wake = timer.C
		} else if flushIn >= 0 {
			timer = time.NewTimer(flushIn)
			wake = timer.C
		}
		select {
		case first := <-l.batcher.C():
			l.eng.AdvanceTo(l.nowFunc())
			buf = l.applyBatch(first, buf)
		case r := <-l.reqs:
			if l.eng.AdvanceTo(l.nowFunc()) > 0 {
				l.publishPending = true // time delivered events; runAdmin publishes them
			}
			l.runAdmin(r)
		case <-wake:
		case <-l.quit:
			if timer != nil {
				timer.Stop()
			}
			l.shutdownDrain(buf)
			return
		}
		if timer != nil {
			timer.Stop()
		}
	}
}

// shown is what a published View shows of an engine, as far as the engine's
// O(1) getters can tell: every mutation a closure can make moves one of them
// (a job changing state moves a count, a clock step moves now, any take or
// return moves the state version).
type shown struct {
	now     float64
	counts  engine.Counts
	version uint64

	active, pending, used                    int
	failedNodes, failedLinks, failedSwitches int
}

func showing(e *engine.Engine) shown {
	v := shown{now: e.Now(), counts: e.Counts(), version: e.StateVersion(),
		active: e.ActiveJobs(), pending: e.PendingEvents(), used: e.UsedNodes()}
	v.failedNodes, v.failedLinks, v.failedSwitches = e.FailedResources()
	return v
}

// runAdmin executes one engine closure and, if it changed what a View shows
// (or a publish is owed anyway), publishes before releasing the caller, so
// the response's effects are already visible to snapshot readers. A closure
// that only reads — a finished job's status lookup — publishes nothing: a
// capture is O(active jobs) on the goroutine every writer waits for.
func (l *lane) runAdmin(r engineReq) {
	before := showing(l.eng)
	r.fn(l.eng)
	if l.publishPending || showing(l.eng) != before {
		l.publishNow()
	}
	close(r.ran)
}

// publishNow captures and publishes unconditionally, records the capture
// cost for the adaptive throttle, and resets it. When the published
// snapshot shows freed capacity, it signals onFree after the publish (see
// the field comment for why the order matters).
func (l *lane) publishNow() {
	t0 := time.Now()
	v := l.pub.Publish(l.eng)
	l.publishCost = time.Since(t0)
	l.lastPublish = t0
	l.publishPending = false
	if l.onFree != nil {
		failed := failedResources(v)
		if v.Snap.FreeNodes > l.lastFreeNodes || failed < l.lastFailedRes {
			l.onFree()
		}
		l.lastFreeNodes, l.lastFailedRes = v.Snap.FreeNodes, failed
	}
}

// publishInterval is the current minimum spacing between publishes while the
// active set is over the cheap threshold: the floor, scaled up with measured
// capture cost so capture work stays at most ~1/publishCostMultiple of
// engine time.
func (l *lane) publishInterval() time.Duration {
	d := publishCostMultiple * l.publishCost
	if d < publishMinInterval {
		d = publishMinInterval
	}
	if d > publishMaxInterval {
		d = publishMaxInterval
	}
	return d
}

// publishAfterDrain publishes the snapshot covering a drain — immediately
// while the active set is small enough that capture is cheap, and on the
// adaptive interval once capture cost (O(active jobs)) would otherwise
// dominate ingest throughput. A deferred publish is flushed by the next
// drain past the interval, or by the wall loop's flush timer when load
// pauses, so reader staleness is bounded by publishInterval.
func (l *lane) publishAfterDrain() {
	if l.eng.ActiveJobs() <= publishCheapThreshold || time.Since(l.lastPublish) >= l.publishInterval() {
		l.publishNow()
		return
	}
	l.publishPending = true
}

// applyBatch coalesces everything queued behind first into one engine tick.
func (l *lane) applyBatch(first *ingest.Op, buf []*ingest.Op) []*ingest.Op {
	buf = l.batcher.Collect(first, buf)
	l.runOps(buf)
	return buf
}

// runOps applies a drained batch, publishes the covering snapshot (possibly
// deferred under storm backlog; see publishAfterDrain), and releases the
// waiting producers.
func (l *lane) runOps(ops []*ingest.Op) {
	for _, op := range ops {
		tRun := time.Now()
		l.queueWait.Observe(tRun.Sub(op.EnqueuedAt).Seconds())
		l.applier.Apply(op)
		l.latency.Observe(time.Since(tRun).Seconds())
	}
	l.observeDrain(len(ops))
	l.publishAfterDrain()
	for _, op := range ops {
		op.Finish()
	}
}

// observeDrain folds one drain into the drain-rate EWMA. The window is
// drain-end to drain-end, which under overload — the only regime where the
// rate is consulted — is back-to-back drains, so the sample measures true
// apply throughput, idle gaps included otherwise (conservative: a mostly
// idle server predicts low and hints clients to wait, which costs nothing
// when the queue is empty anyway).
func (l *lane) observeDrain(n int) {
	now := time.Now()
	if !l.lastDrainEnd.IsZero() {
		if dt := now.Sub(l.lastDrainEnd).Seconds(); dt > 0 {
			sample := float64(n) / dt
			prev := math.Float64frombits(l.drainRate.Load())
			if prev > 0 {
				sample = 0.2*sample + 0.8*prev
			}
			l.drainRate.Store(math.Float64bits(sample))
		}
	}
	l.lastDrainEnd = now
}

// retryAfterSeconds derives the 429 Retry-After hint from the measured drain
// rate and the current queue depth: the predicted time for the engine to
// drain everything already queued, rounded up to whole seconds (RFC 9110
// delta-seconds are integral). A prediction under one second floors to 0 —
// "retry immediately" — because the queue will have turned over long before
// a 1-second sleep ends; this is the case the old hardcoded "1" got wrong.
// With no drain observed yet there is nothing to extrapolate from, so the
// hint stays at the conservative 1.
func (l *lane) retryAfterSeconds() int {
	rate := math.Float64frombits(l.drainRate.Load())
	if rate <= 0 {
		return 1
	}
	predicted := float64(l.batcher.Len()) / rate
	if predicted < 1 {
		return 0
	}
	secs := int(math.Ceil(predicted))
	if secs > maxRetryAfter {
		secs = maxRetryAfter
	}
	return secs
}

// maxRetryAfter caps the Retry-After hint; beyond this the prediction says
// more about a stalled engine than about queue depth, and well-behaved
// clients treat the hint as a minimum anyway.
const maxRetryAfter = 60

// shutdownDrain closes admission, applies every operation the queue already
// accepted (so no acknowledged enqueue is silently dropped), and publishes
// the final state.
func (l *lane) shutdownDrain(buf []*ingest.Op) {
	l.batcher.CloseEnqueue()
	if rest := l.batcher.DrainRemaining(buf); len(rest) > 0 {
		l.runOps(rest)
	}
	if l.publishPending {
		l.publishNow()
	}
}

// do runs fn on the lane's engine goroutine and waits for it to finish
// (admin and point-read path; the submit/cancel hot path uses the ingest
// queue).
func (l *lane) do(fn func(e *engine.Engine)) error {
	r := engineReq{fn: fn, ran: make(chan struct{})}
	select {
	case l.reqs <- r:
		<-r.ran
		return nil
	case <-l.done:
		return ErrClosed
	}
}

// park pins the lane's engine goroutine inside an admin closure and hands
// the engine to the caller. The returned release function resumes the lane
// (publishing first whatever the caller changed, so it is visible). The
// cross-shard coordinator parks lanes in ascending index order; see
// DESIGN.md §16 for why that order cannot deadlock.
func (l *lane) park() (*engine.Engine, func(), error) {
	rel := make(chan struct{})
	got := make(chan struct{})
	var eng *engine.Engine
	r := engineReq{
		fn:  func(e *engine.Engine) { eng = e; close(got); <-rel },
		ran: make(chan struct{}),
	}
	select {
	case l.reqs <- r:
		<-got
		l.parks.Add(1)
		return eng, func() { close(rel); <-r.ran }, nil
	case <-l.done:
		return nil, nil, ErrClosed
	}
}

// writeIngestError maps ingest admission failures: a full queue is 429 with
// a drain-rate-derived Retry-After (the client should back off, never
// block; see retryAfterSeconds), a closed server is 503.
func (l *lane) writeIngestError(w http.ResponseWriter, err error) {
	if isOverloaded(err) {
		w.Header().Set("Retry-After", strconv.Itoa(l.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	writeError(w, http.StatusServiceUnavailable, "%v", err)
}
