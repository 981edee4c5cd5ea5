package server

// A lane is one shard's scheduling engine plus the machinery that makes it a
// service: the goroutine that owns the engine, the bounded ingest queue in
// front of it, the RCU snapshot publisher behind it, and the per-lane latency
// instruments. The Server (server.go) is a routing gateway over its lanes and
// never touches an engine except through one.
//
// One loop serves both clocks (loop); its turns take the current instant (or
// a clock to read it from), so a test can drive a lane turn by turn without
// the goroutine. What the two clocks disagree on is the clock type's alone.

import (
	"errors"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/snapshot"
)

// clock is the daemon's one virtual-or-wall decision: server.New builds it
// from Config.VirtualClock and Config.nowFunc, and nothing else reads those.
type clock interface {
	name() string // what /v1/cluster reports
	// at is the instant given to a job's asked-for arrival, or to the latest
	// clock of the lanes the coordinator parked: asked itself, or now.
	at(asked float64) float64
	due(e *engine.Engine) int  // delivers what is due before a drain or closure
	idle(e *engine.Engine) int // advances e when nothing is queued
	// wait is how long until e next needs a turn, at most maxWait; false
	// when no event is pending.
	wait(e *engine.Engine) (time.Duration, bool)
}

// maxWait caps an idle lane's sleep; woken with nothing due, it sleeps again.
const maxWait = time.Minute

// newClock is the clock of a Config; a nil now counts seconds from this call.
func newClock(virtual bool, now func() float64) clock {
	if virtual {
		return virtualClock{}
	}
	if now == nil {
		start := time.Now()
		now = func() float64 { return time.Since(start).Seconds() }
	}
	return wallClock{now}
}

// virtualClock fast-forwards: a job arrives when it asks to, and an idle lane
// steps its engine one event per turn, "immediately" while events are pending.
type virtualClock struct{}

func (virtualClock) name() string                                { return "virtual" }
func (virtualClock) at(asked float64) float64                    { return asked }
func (virtualClock) due(*engine.Engine) int                      { return 0 }
func (virtualClock) wait(e *engine.Engine) (time.Duration, bool) { return 0, e.PendingEvents() > 0 }

func (virtualClock) idle(e *engine.Engine) int {
	if _, ok := e.Step(); ok {
		return 1
	}
	return 0
}

// wallClock tracks real seconds: every turn first delivers what is due by
// now, a job arrives when it is submitted, and an idle lane sleeps until its
// next event.
type wallClock struct{ now func() float64 }

func (wallClock) name() string                { return "wall" }
func (c wallClock) at(float64) float64        { return c.now() }
func (c wallClock) due(e *engine.Engine) int  { return e.AdvanceTo(c.now()) }
func (c wallClock) idle(e *engine.Engine) int { return c.due(e) }

// wait saturates in float seconds: an event ~292 years away would overflow
// time.Duration into a negative wait and spin the lane.
func (c wallClock) wait(e *engine.Engine) (time.Duration, bool) {
	t, ok := e.NextEventTime()
	switch d := t - c.now(); {
	case !ok || d <= 0:
		return 0, ok
	case d >= maxWait.Seconds():
		return maxWait, true
	default:
		return time.Duration(math.Ceil(d * float64(time.Second))), true
	}
}

// engineReq is one admin closure headed for a lane's engine goroutine.
type engineReq struct {
	fn  func(*engine.Engine)
	ran chan struct{}
}

// lane is one engine, its owning goroutine, and its front-door queues.
// All publish/drain bookkeeping fields are engine-goroutine-only.
type lane struct {
	clock clock

	eng  *engine.Engine
	reqs chan engineReq
	quit chan struct{}
	done chan struct{}

	batcher *ingest.Batcher
	applier *ingest.Applier
	pub     *snapshot.Publisher
	// unpublished counts the events the clock delivered since the last
	// publish.
	unpublished int

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

func newLane(eng *engine.Engine, clk clock, ingestQueue, maxBatch int) *lane {
	return &lane{
		clock:     clk,
		eng:       eng,
		reqs:      make(chan engineReq),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
		batcher:   ingest.NewBatcher(ingestQueue, maxBatch),
		applier:   ingest.NewApplier(eng),
		pub:       snapshot.NewPublisher(eng),
		latency:   newLatencyHist(),
		queueWait: newLatencyHist(),
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

// loop is the engine goroutine, the only code that touches l.eng and the only
// owner of a timer: a non-blocking poll of the ingest wake-up, admin-closure
// and quit channels, an idle turn when none is ready, and one blocking wait
// for as long as that turn allows. The poll has no priority order: Go picks
// uniformly at random among ready cases, and that random choice is what keeps
// closures from starving behind an ingest storm.
func (l *lane) loop() {
	defer close(l.done)
	var buf []*ingest.Op
	timer := time.NewTimer(maxWait)
	timer.Stop()
	for {
		select {
		case <-l.batcher.Wake():
			buf = l.applyBatch(buf)
			continue
		case r := <-l.reqs:
			l.runAdmin(r)
			continue
		case <-l.quit:
			l.shutdownDrain(buf)
			return
		default:
		}
		var wake <-chan time.Time
		if d, ok := l.idle(); ok {
			if d <= 0 {
				continue // more is due: the next turn needs no wait
			}
			timer.Reset(d)
			wake = timer.C
		}
		select {
		case <-l.batcher.Wake():
			buf = l.applyBatch(buf)
		case r := <-l.reqs:
			l.runAdmin(r)
		case <-wake:
			wake = nil
		case <-l.quit:
			l.shutdownDrain(buf)
			return
		}
		// Stop, and drain a tick that fired unread, before the next Reset
		// (go.mod's go 1.22 keeps the buffered timer channel).
		if wake != nil && !timer.Stop() {
			<-timer.C
		}
	}
}

// idle is the turn a lane takes when nothing is queued. The clock advances the
// engine (virtual: one event; wall: to now), and the events it delivered are
// published once publishEveryStepsVirtual have piled up or nothing more is
// due. It returns how long the lane may wait for its next turn: 0 while
// events are due, otherwise until the next event; false when nothing will
// ever be due.
func (l *lane) idle() (time.Duration, bool) {
	l.unpublished += l.clock.idle(l.eng)
	d, pending := l.clock.wait(l.eng)
	if l.unpublished >= publishEveryStepsVirtual || l.unpublished > 0 && !(pending && d == 0) {
		l.publish()
	}
	return d, pending
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

// runAdmin is a closure turn: deliver what the clock says is due, run the
// closure and, if it changed what a View shows (or delivered events are
// unpublished), publish before releasing the caller, so the response's
// effects are already visible to snapshot readers. A closure that only reads
// — a finished job's status lookup — publishes nothing.
func (l *lane) runAdmin(r engineReq) {
	l.unpublished += l.clock.due(l.eng)
	before := showing(l.eng)
	r.fn(l.eng)
	if l.unpublished > 0 || showing(l.eng) != before {
		l.publish()
	}
	close(r.ran)
}

// publish folds the engine's changes into a new View and swaps it in. When
// the published snapshot shows freed capacity, it signals onFree after the
// publish (see the field comment for why the order matters).
func (l *lane) publish() {
	v := l.pub.Publish(l.eng)
	l.unpublished = 0
	if l.onFree != nil {
		failed := failedResources(v)
		if v.Snap.FreeNodes > l.lastFreeNodes || failed < l.lastFailedRes {
			l.onFree()
		}
		l.lastFreeNodes, l.lastFailedRes = v.Snap.FreeNodes, failed
	}
}

// applyBatch takes one wake-up's batch and drains it. A wake-up whose ops an
// earlier Collect already took is no turn: nothing is drained, published or
// sampled for the drain rate.
func (l *lane) applyBatch(buf []*ingest.Op) []*ingest.Op {
	if buf = l.batcher.Collect(buf); len(buf) > 0 {
		l.drain(buf)
	}
	return buf
}

// drain is a batch turn: deliver what the clock says is due, apply the ops,
// publish the covering snapshot, and release the waiting producers, so every
// producer's write is visible to readers before it is answered. The clock is
// read after the ops were collected, so on the wall clock no op's arrival is
// later than the engine's time.
func (l *lane) drain(ops []*ingest.Op) {
	l.unpublished += l.clock.due(l.eng)
	for _, op := range ops {
		tRun := time.Now()
		l.queueWait.Observe(tRun.Sub(op.EnqueuedAt).Seconds())
		l.applier.Apply(op)
		l.latency.Observe(time.Since(tRun).Seconds())
	}
	l.observeDrain(len(ops))
	l.publish()
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
	return int(min(math.Ceil(predicted), maxRetryAfter))
}

// enqueue queues ops on the lane, all or none. A full queue's refusal is a
// shed carrying this lane's Retry-After hint.
func (l *lane) enqueue(ops ...*ingest.Op) (*ingest.Batch, error) {
	batch, err := l.batcher.Enqueue(ops...)
	if errors.Is(err, ingest.ErrOverloaded) {
		return nil, shed(l.retryAfterSeconds())
	}
	return batch, err
}

// maxRetryAfter caps the Retry-After hint; beyond this the prediction says
// more about a stalled engine than about queue depth, and well-behaved
// clients treat the hint as a minimum anyway.
const maxRetryAfter = 60

// shutdownDrain is the last turn: it closes admission, applies every
// operation the queue already accepted (so no acknowledged enqueue is silently
// dropped), and publishes the final state.
func (l *lane) shutdownDrain(buf []*ingest.Op) {
	l.batcher.CloseEnqueue()
	if rest := l.batcher.DrainRemaining(buf); len(rest) > 0 {
		l.drain(rest)
	}
	if l.unpublished > 0 {
		l.publish()
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
