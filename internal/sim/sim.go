// Package sim provides the discrete-event core of the scheduling simulator:
// a virtual clock and a priority event queue with deterministic ordering.
//
// Events at equal timestamps are ordered by priority class (completions
// before arrivals, so resources freed at time t are available to jobs
// arriving at t) and then by insertion sequence, which makes simulations
// bit-for-bit reproducible.
package sim

import "container/heap"

// Priority classes for same-timestamp ordering.
const (
	// PrioCompletion orders job completions first at equal times.
	PrioCompletion = 0
	// PrioArrival orders job arrivals after completions.
	PrioArrival = 1
)

// Event is one scheduled occurrence.
type Event struct {
	Time float64
	Prio int
	// Payload identifies the event to the caller (typically a job).
	Payload any

	seq int64
}

// Queue is a deterministic discrete-event queue. The zero value is ready to
// use.
type Queue struct {
	h   eventHeap
	seq int64
}

// Push schedules an event.
func (q *Queue) Push(e Event) {
	e.seq = q.seq
	q.seq++
	heap.Push(&q.h, e)
}

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.h) }

// Peek returns the next event without removing it. It panics on an empty
// queue; check Len first.
func (q *Queue) Peek() Event { return q.h[0] }

// Pop removes and returns the next event. It panics on an empty queue.
func (q *Queue) Pop() Event { return heap.Pop(&q.h).(Event) }

type eventHeap []Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].Time != h[j].Time {
		return h[i].Time < h[j].Time
	}
	if h[i].Prio != h[j].Prio {
		return h[i].Prio < h[j].Prio
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(Event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = Event{} // do not pin the delivered payload from the spare capacity
	*h = old[:n-1]
	return e
}
