// Package ingest is the daemon's front door: a bounded multi-producer,
// single-consumer queue between the HTTP goroutines and the engine
// goroutine, and the applier that replays queued operations on the engine
// exactly as one-at-a-time submission would.
//
// A Batcher is a ring of ops behind one mutex, which also guards the closed
// flag and the counters, plus a one-slot wake channel. Enqueue never blocks:
// under the lock it admits all of its ops or none (ErrOverloaded when fewer
// slots are free, so the HTTP layer can answer 429 at once; ErrClosed after
// CloseEnqueue), so an enqueue is queued whole and contiguous, and it leaves
// one wake-up. The engine goroutine waits on Wake, so no request pays a
// rendezvous with it, and Collects up to the batch bound from the head to
// apply in one tick; a Collect that leaves ops behind re-arms the wake-up,
// and one that finds the ring empty is no turn. CloseEnqueue takes the same
// lock, so once it returns the ring holds all it ever will and
// DrainRemaining empties it: Server.Close never drops an accepted operation.
package ingest

import (
	"errors"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/trace"
)

var (
	// ErrOverloaded reports a full ingest queue; the caller should shed the
	// request (HTTP 429) rather than wait.
	ErrOverloaded = errors.New("ingest: queue full")
	// ErrClosed reports an enqueue after CloseEnqueue.
	ErrClosed = errors.New("ingest: closed")
)

// Kind discriminates queued operations.
type Kind uint8

const (
	// Submit queues Op.Job for admission.
	Submit Kind = iota
	// Cancel withdraws the job with Op.ID.
	Cancel
)

// Op is one queued mutation and its result slot. The producer fills Kind
// and the payload, enqueues, and waits on the Batch; the applier fills the
// result fields before the batcher's owner finishes the op. The Batch.Wait
// return is the happens-before edge that makes the results readable.
type Op struct {
	Kind Kind
	Job  trace.Job // Submit payload; ID 0 auto-assigns the next free ID
	ID   int64     // Cancel target

	// EnqueuedAt, set by the producer, lets the consumer report how long
	// ops waited in the queue (the request-queue-wait histogram).
	EnqueuedAt time.Time

	// Results, valid after Batch.Wait returns.
	Status engine.JobStatus
	Known  bool  // Cancel: the job existed; Submit: admission succeeded
	Err    error // engine rejection (duplicate ID, already-terminal cancel…)

	wg *sync.WaitGroup
}

// Finish releases the op's producer. The engine goroutine calls it once per
// op after the op has been applied. While the server's lane holds at most
// 4096 active jobs it is also called after the covering snapshot is
// published, so a producer that wakes and immediately reads /v1/queue sees
// its own write. Above that the publish may be deferred, on either clock, by
// at most the throttle's interval (see internal/server's lane.publish); queue
// depth alone never defers it.
func (op *Op) Finish() { op.wg.Done() }

// Batch ties one Enqueue call's ops to a completion signal. Ops may be
// finished across several drains; Wait returns when every op has results.
type Batch struct{ wg sync.WaitGroup }

// Wait blocks until every op in the batch has been applied and finished.
func (b *Batch) Wait() { b.wg.Wait() }

// Batcher is the bounded MPSC operation queue. Producers call Enqueue from
// any goroutine; exactly one consumer (the engine goroutine) waits on Wake
// and collects batches.
type Batcher struct {
	maxBatch int
	wake     chan struct{} // one slot: a wake-up is pending or not

	mu       sync.Mutex
	ring     []*Op // queued ops are ring[head], ring[head+1], … n of them, mod len
	head, n  int
	closed   bool
	accepted int64 // ops admitted
	rejected int64 // ops refused with ErrOverloaded
}

// NewBatcher builds a queue holding up to queueCap ops, drained at most
// maxBatch at a time. Bounds below 1 are raised to 1.
func NewBatcher(queueCap, maxBatch int) *Batcher {
	return &Batcher{
		maxBatch: max(maxBatch, 1),
		wake:     make(chan struct{}, 1),
		ring:     make([]*Op, max(queueCap, 1)),
	}
}

// Enqueue admits all ops or none. It never blocks: if fewer than len(ops)
// slots are free it fails with ErrOverloaded, and after CloseEnqueue it
// fails with ErrClosed. On success the returned Batch's Wait blocks until
// the engine goroutine has applied and finished every op. The ops slice
// itself is not retained.
func (b *Batcher) Enqueue(ops ...*Op) (*Batch, error) {
	batch := &Batch{}
	if len(ops) == 0 {
		return batch, nil
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	if len(b.ring)-b.n < len(ops) {
		b.rejected += int64(len(ops))
		b.mu.Unlock()
		return nil, ErrOverloaded
	}
	batch.wg.Add(len(ops))
	for _, op := range ops {
		op.wg = &batch.wg
		b.ring[(b.head+b.n)%len(b.ring)] = op
		b.n++
	}
	b.accepted += int64(len(ops))
	b.mu.Unlock()
	b.signal()
	return batch, nil
}

// signal leaves one wake-up for the consumer; wake-ups do not pile up.
func (b *Batcher) signal() {
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// Wake is ready when ops may be queued. The consumer receives from it, so it
// can select over ops, timers and shutdown at once, and then calls Collect.
func (b *Batcher) Wake() <-chan struct{} { return b.wake }

// Collect forms one drain batch: up to the batch bound of the oldest queued
// ops, appended into buf (reused; contents overwritten). If ops remain it
// re-arms the wake-up. It returns an empty batch when an earlier Collect
// already took what the wake-up announced.
func (b *Batcher) Collect(buf []*Op) []*Op {
	b.mu.Lock()
	defer b.mu.Unlock()
	buf = b.take(buf[:0], b.maxBatch)
	if b.n > 0 {
		b.signal()
	}
	return buf
}

// take moves up to k ops from the head of the ring to buf. Callers hold mu.
func (b *Batcher) take(buf []*Op, k int) []*Op {
	for ; k > 0 && b.n > 0; k-- {
		buf = append(buf, b.ring[b.head])
		b.ring[b.head] = nil
		b.head = (b.head + 1) % len(b.ring)
		b.n--
	}
	return buf
}

// CloseEnqueue stops admission: every later Enqueue fails with ErrClosed.
// When it returns, the queue holds everything it will ever hold and
// DrainRemaining empties it completely. Safe to call more than once.
func (b *Batcher) CloseEnqueue() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
}

// DrainRemaining takes every op still queued after CloseEnqueue, without
// the batch-size bound (shutdown wants one final full drain).
func (b *Batcher) DrainRemaining(buf []*Op) []*Op {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.take(buf[:0], b.n)
}

// Accepted returns the number of ops admitted so far.
func (b *Batcher) Accepted() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.accepted
}

// Rejected returns the number of ops refused with ErrOverloaded, the
// jigsawd_ingest_rejected_total counter.
func (b *Batcher) Rejected() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rejected
}

// Len is the current queue depth: admitted ops not yet taken by the
// consumer.
func (b *Batcher) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// Cap returns the queue bound.
func (b *Batcher) Cap() int { return len(b.ring) }

// Applier replays ops on the engine exactly as the serial HTTP path did:
// each op is applied on its own — submit, advance to the engine's current
// time so the response reflects the scheduling decision, read status — so a
// trace pushed through batches of any size yields a ledger bit-for-bit
// identical to one-at-a-time submission. Only the engine-owning goroutine
// may call it.
type Applier struct {
	eng    *engine.Engine
	nextID int64
}

// NewApplier wraps an engine. IDs auto-assign from 1, skipping past any
// explicit IDs seen, matching the serial server's assignment.
func NewApplier(e *engine.Engine) *Applier { return &Applier{eng: e, nextID: 1} }

// Apply runs one op against the engine and fills its result fields. It does
// not Finish the op; the caller does that after publishing a snapshot that
// covers the op's effects.
func (a *Applier) Apply(op *Op) {
	switch op.Kind {
	case Submit:
		j := op.Job
		if j.ID == 0 {
			j.ID = a.nextID
		}
		if op.Err = a.eng.Submit(j); op.Err != nil {
			return
		}
		if j.ID >= a.nextID {
			a.nextID = j.ID + 1
		}
		// Deliver every event due now so the result reflects the scheduling
		// decision (running vs queued), like the serial handler did.
		a.eng.AdvanceTo(a.eng.Now())
		op.Job = j
		op.Status, op.Known = a.eng.Status(j.ID)
	case Cancel:
		if op.Status, op.Known = a.eng.Status(op.ID); !op.Known {
			return
		}
		op.Status, op.Err = a.eng.Cancel(op.ID)
	}
}
