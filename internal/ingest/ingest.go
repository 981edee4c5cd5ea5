// Package ingest is the concurrent front door of the daemon: a bounded
// multi-producer/single-consumer batching queue between the HTTP goroutines
// and the engine goroutine, plus the applier that replays queued operations
// on the engine with semantics identical to one-at-a-time submission.
//
// # Why batching
//
// The engine is single-threaded; the serial server paid one channel
// rendezvous (enqueue, run, signal) per HTTP request, so the request rate
// was capped by the engine goroutine's wake-up latency, not by scheduling
// cost. The Batcher decouples the two: producers enqueue operations without
// waiting for the engine to wake, and the engine goroutine drains everything
// queued — up to a batch-size bound — in one tick, paying the coordination
// cost once per drain instead of once per request.
//
// # Overload, not blocking
//
// The queue is bounded and Enqueue never blocks: when the queue is full it
// fails with ErrOverloaded so the HTTP layer can answer 429 immediately.
// Multi-op enqueues are admitted all-or-nothing via lock-free slot
// reservation, so a batch is never half-queued.
//
// # Shutdown
//
// Producers enqueue under a read lock; CloseEnqueue takes the write lock.
// Once CloseEnqueue returns, no producer is mid-send, so the queue's
// remaining contents are complete and the consumer can drain to empty —
// this is what guarantees Server.Close never drops an accepted operation.
package ingest

import (
	"errors"
	"sync"
	"sync/atomic"
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
type Batch struct {
	Ops []*Op
	wg  sync.WaitGroup
}

// Wait blocks until every op in the batch has been applied and finished.
func (b *Batch) Wait() { b.wg.Wait() }

// Batcher is the bounded MPSC operation queue. Producers call Enqueue from
// any goroutine; exactly one consumer (the engine goroutine) receives from
// C and collects batches.
type Batcher struct {
	ops      chan *Op
	maxBatch int

	// avail is the number of free queue slots. Producers reserve slots with
	// a CAS loop before sending (all-or-nothing for multi-op enqueues, and
	// the guarantee that sends on ops never block); the consumer returns
	// slots as it takes ops out.
	avail atomic.Int64

	// mu gates enqueues against shutdown and against Collect: producers hold
	// the read side across the reserve-and-send sequence; CloseEnqueue takes
	// the write side, so after CloseEnqueue no send is in flight; Collect
	// takes it so that it sees multi-op enqueues whole.
	mu     sync.RWMutex
	closed bool

	accepted atomic.Int64 // ops admitted
	rejected atomic.Int64 // ops refused with ErrOverloaded
}

// NewBatcher builds a queue holding up to queueCap ops, drained at most
// maxBatch at a time. Bounds below 1 are raised to 1.
func NewBatcher(queueCap, maxBatch int) *Batcher {
	if queueCap < 1 {
		queueCap = 1
	}
	if maxBatch < 1 {
		maxBatch = 1
	}
	b := &Batcher{ops: make(chan *Op, queueCap), maxBatch: maxBatch}
	b.avail.Store(int64(queueCap))
	return b
}

// Enqueue admits all ops or none. It never blocks: if fewer than len(ops)
// slots are free it fails with ErrOverloaded, and after CloseEnqueue it
// fails with ErrClosed. On success the returned Batch's Wait blocks until
// the engine goroutine has applied and finished every op.
func (b *Batcher) Enqueue(ops ...*Op) (*Batch, error) {
	n := int64(len(ops))
	batch := &Batch{Ops: ops}
	if n == 0 {
		return batch, nil
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return nil, ErrClosed
	}
	for {
		free := b.avail.Load()
		if free < n {
			b.rejected.Add(n)
			return nil, ErrOverloaded
		}
		if b.avail.CompareAndSwap(free, free-n) {
			break
		}
	}
	batch.wg.Add(len(ops))
	for _, op := range ops {
		op.wg = &batch.wg
		b.ops <- op // cannot block: slots reserved above
	}
	b.accepted.Add(n)
	return batch, nil
}

// C is the consumer's receive channel, exposed so the engine goroutine can
// select over ops, timers, and shutdown at once. After receiving a first
// op, call Collect to greedily take the rest of the drain's batch.
func (b *Batcher) C() <-chan *Op { return b.ops }

// Collect forms one drain batch: first (already received from C) plus every
// immediately-available op, up to the batch-size bound, appended into buf
// (reused; contents overwritten). Queue slots are released as ops are
// taken.
//
// It excludes producers for the few microseconds it runs: the write lock
// waits out an Enqueue that is still sending and holds off new ones, so a
// multi-op Enqueue is never collected in part. Otherwise a consumer that
// outruns a producer's send loop would apply half a batch, find the queue
// momentarily empty, and let the engine step its clock before the other half
// arrives.
func (b *Batcher) Collect(first *Op, buf []*Op) []*Op {
	b.mu.Lock()
	defer b.mu.Unlock()
	buf = append(buf[:0], first)
	b.avail.Add(1)
	for len(buf) < b.maxBatch {
		select {
		case op := <-b.ops:
			buf = append(buf, op)
			b.avail.Add(1)
		default:
			return buf
		}
	}
	return buf
}

// CloseEnqueue stops admission: every later Enqueue fails with ErrClosed.
// When it returns, no producer is mid-send, so the queue holds everything
// it will ever hold and DrainRemaining empties it completely. Safe to call
// more than once.
func (b *Batcher) CloseEnqueue() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
}

// DrainRemaining takes every op still queued after CloseEnqueue, without
// the batch-size bound (shutdown wants one final full drain).
func (b *Batcher) DrainRemaining(buf []*Op) []*Op {
	buf = buf[:0]
	for {
		select {
		case op := <-b.ops:
			buf = append(buf, op)
			b.avail.Add(1)
		default:
			return buf
		}
	}
}

// Accepted returns the number of ops admitted so far.
func (b *Batcher) Accepted() int64 { return b.accepted.Load() }

// Rejected returns the number of ops refused with ErrOverloaded, the
// jigsawd_ingest_rejected_total counter.
func (b *Batcher) Rejected() int64 { return b.rejected.Load() }

// Len approximates the current queue depth (admitted ops not yet taken by
// the consumer).
func (b *Batcher) Len() int { return int(int64(cap(b.ops)) - b.avail.Load()) }

// Cap returns the queue bound.
func (b *Batcher) Cap() int { return cap(b.ops) }

// MaxBatch returns the per-drain batch bound.
func (b *Batcher) MaxBatch() int { return b.maxBatch }

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
