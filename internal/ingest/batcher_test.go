package ingest

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/trace"
)

func op(id int64) *Op { return &Op{Kind: Cancel, ID: id} }

func TestEnqueueBoundsAndAllOrNothing(t *testing.T) {
	b := NewBatcher(4, 2)

	if _, err := b.Enqueue(op(1), op(2), op(3)); err != nil {
		t.Fatalf("enqueue 3/4: %v", err)
	}
	// Two ops against one free slot must be refused whole: all-or-nothing.
	if _, err := b.Enqueue(op(4), op(5)); err != ErrOverloaded {
		t.Fatalf("enqueue 2/1 err = %v, want ErrOverloaded", err)
	}
	if b.Len() != 3 {
		t.Fatalf("half-admitted batch: Len = %d, want 3", b.Len())
	}
	if _, err := b.Enqueue(op(4)); err != nil {
		t.Fatalf("enqueue 1/1: %v", err)
	}
	if _, err := b.Enqueue(op(5)); err != ErrOverloaded {
		t.Fatalf("enqueue 1/0 err = %v, want ErrOverloaded", err)
	}
	if b.Accepted() != 4 || b.Rejected() != 3 || b.Len() != 4 {
		t.Fatalf("accepted=%d rejected=%d len=%d, want 4/3/4", b.Accepted(), b.Rejected(), b.Len())
	}

	// Collect honors the batch bound and releases slots.
	batch := b.Collect(nil)
	if len(batch) != 2 || batch[0].ID != 1 || batch[1].ID != 2 {
		t.Fatalf("collect = %v ops, want FIFO [1 2]", ids(batch))
	}
	if b.Len() != 2 {
		t.Fatalf("Len after collect = %d, want 2", b.Len())
	}
	batch = b.Collect(batch)
	if len(batch) != 2 || batch[0].ID != 3 || batch[1].ID != 4 {
		t.Fatalf("second collect = %v, want [3 4]", ids(batch))
	}
	if b.Len() != 0 {
		t.Fatalf("Len after drain = %d, want 0", b.Len())
	}
}

func ids(ops []*Op) []int64 {
	out := make([]int64, len(ops))
	for i, o := range ops {
		out[i] = o.ID
	}
	return out
}

func TestCloseEnqueueThenDrainRemaining(t *testing.T) {
	b := NewBatcher(8, 4)
	if _, err := b.Enqueue(op(1), op(2), op(3)); err != nil {
		t.Fatal(err)
	}
	b.CloseEnqueue()
	b.CloseEnqueue() // idempotent
	if _, err := b.Enqueue(op(4)); err != ErrClosed {
		t.Fatalf("enqueue after close err = %v, want ErrClosed", err)
	}
	// DrainRemaining ignores the batch bound and empties the queue.
	rest := b.DrainRemaining(nil)
	if len(rest) != 3 || rest[0].ID != 1 || rest[2].ID != 3 {
		t.Fatalf("drain remaining = %v, want [1 2 3]", ids(rest))
	}
	if b.Len() != 0 || len(b.DrainRemaining(rest)) != 0 {
		t.Fatalf("queue not empty after final drain")
	}
}

// TestConcurrentProducersExactlyOnce hammers the batcher from many
// goroutines (run under -race in CI): every admitted op must be delivered
// to the single consumer exactly once and in per-producer FIFO order, every
// Batch.Wait must return, and accounting must balance.
func TestConcurrentProducersExactlyOnce(t *testing.T) {
	const (
		producers = 8
		perProd   = 300
	)
	b := NewBatcher(32, 8)

	quit := make(chan struct{})
	var consumed sync.Map // id -> delivery count
	var delivered atomic.Int64
	var consumerDone sync.WaitGroup
	consumerDone.Add(1)
	go func() {
		defer consumerDone.Done()
		var buf []*Op
		for {
			select {
			case <-b.Wake():
				buf = b.Collect(buf)
				for _, o := range buf {
					if n, loaded := consumed.LoadOrStore(o.ID, 1); loaded {
						consumed.Store(o.ID, n.(int)+1)
					}
					delivered.Add(1)
					o.Known = true
					o.Finish()
				}
			case <-quit:
				for _, o := range b.DrainRemaining(buf) {
					delivered.Add(1)
					o.Finish()
				}
				return
			}
		}
	}()

	var accepted atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			lastSeen := int64(-1)
			for i := 0; i < perProd; i++ {
				o := &Op{Kind: Cancel, ID: int64(p*perProd + i)}
				batch, err := b.Enqueue(o)
				if err == ErrOverloaded {
					continue // shed, like the HTTP layer would
				}
				if err != nil {
					t.Errorf("enqueue: %v", err)
					return
				}
				accepted.Add(1)
				batch.Wait()
				if !o.Known {
					t.Errorf("op %d finished without results", o.ID)
					return
				}
				if o.ID <= lastSeen {
					t.Errorf("producer %d saw reordering: %d after %d", p, o.ID, lastSeen)
					return
				}
				lastSeen = o.ID
			}
		}(p)
	}
	wg.Wait()
	b.CloseEnqueue()
	close(quit)
	consumerDone.Wait()

	if delivered.Load() != accepted.Load() {
		t.Fatalf("delivered %d ops, accepted %d", delivered.Load(), accepted.Load())
	}
	if b.Accepted() != accepted.Load() {
		t.Fatalf("Accepted() = %d, producers counted %d", b.Accepted(), accepted.Load())
	}
	var dups int
	consumed.Range(func(_, n any) bool {
		if n.(int) != 1 {
			dups++
		}
		return true
	})
	if dups != 0 {
		t.Fatalf("%d ops delivered more than once", dups)
	}
	if b.Accepted()+b.Rejected() != producers*perProd {
		t.Fatalf("accepted %d + rejected %d != %d offered", b.Accepted(), b.Rejected(), producers*perProd)
	}
}

// TestCollectNeverSplitsAnEnqueue pins directly what a lane relies on to keep
// its clock still inside one request: concurrent producers enqueue
// multi-op batches, and a Collect that returns part of one enqueue must find
// the rest already queued (Len at least the remainder), at the head of the
// next Collect. Within a Collect every enqueue's ops are contiguous and in
// order. The batch bound is smaller than most enqueues, so many straddle
// Collects.
func TestCollectNeverSplitsAnEnqueue(t *testing.T) {
	const (
		producers = 6
		perProd   = 150
		maxBatch  = 5
	)
	b := NewBatcher(64, maxBatch)
	// An op names its enqueue in Job.ID, the enqueue's size in Job.Size, and
	// its own place in it in ID.
	quit := make(chan struct{})
	consumerDone := make(chan struct{})
	var failure string
	go func() {
		defer close(consumerDone)
		var buf []*Op
		var open *Op // an op of the enqueue the last Collect took in part
		var next int64
		check := func(buf []*Op, depth int) bool {
			for _, o := range buf {
				switch {
				case open != nil && (o.Job.ID != open.Job.ID || o.ID != next):
					failure = fmt.Sprintf("enqueue %d broken: op %d of enqueue %d where op %d was due", open.Job.ID, o.ID, o.Job.ID, next)
					return false
				case open == nil && o.ID != 0:
					failure = fmt.Sprintf("enqueue %d starts at op %d", o.Job.ID, o.ID)
					return false
				}
				open, next = o, o.ID+1
				if next == int64(o.Job.Size) {
					open = nil
				}
			}
			if open != nil && depth < open.Job.Size-int(next) {
				failure = fmt.Sprintf("Collect took %d ops of enqueue %d while %d of the other %d were queued",
					next, open.Job.ID, depth, open.Job.Size-int(next))
				return false
			}
			return true
		}
		finish := func(buf []*Op) {
			for _, o := range buf {
				o.Finish()
			}
		}
		for {
			select {
			case <-b.Wake():
				buf = b.Collect(buf)
				ok := check(buf, b.Len())
				finish(buf)
				if !ok {
					return
				}
			case <-quit:
				buf = b.DrainRemaining(buf)
				if check(buf, 0) && open != nil {
					failure = fmt.Sprintf("enqueue %d never completed", open.Job.ID)
				}
				finish(buf)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				size := 1 + (p*7+i)%12
				ops := make([]*Op, size)
				for k := range ops {
					ops[k] = &Op{Kind: Cancel, ID: int64(k), Job: trace.Job{ID: int64(p*perProd + i), Size: size}}
				}
				batch, err := b.Enqueue(ops...)
				if err == ErrOverloaded {
					continue
				}
				if err != nil {
					t.Errorf("enqueue: %v", err)
					return
				}
				batch.Wait()
			}
		}(p)
	}
	// A consumer that stopped on a failure finishes nothing more, so the
	// producers are not waited on then.
	producersDone := make(chan struct{})
	go func() { wg.Wait(); close(producersDone) }()
	select {
	case <-producersDone:
		close(quit)
		<-consumerDone
	case <-consumerDone:
	}
	if failure != "" {
		t.Fatal(failure)
	}
	if b.Accepted() == 0 {
		t.Fatal("no enqueue was admitted")
	}
}
