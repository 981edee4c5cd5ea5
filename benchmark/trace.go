package main

// Span recording for the traced layer replay: an in-memory recorder, the
// allocator decorator that files every call into the core layer under the
// request (or background work) that caused it, and the self-time arithmetic.
// All of it lives in the benchmark; the program under test is not edited.

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/partition"
	"repro/internal/topology"
)

type spanName uint8

const (
	spServerHandler spanName = iota
	spIngestApply
	spEngineStep
	spEngineStatus
	spSnapshotPublish
	spSnapshotRead
	spSnapshotMerge
	spSchedRun
	spCoreAllocate
	spCoreRelease
	spCoreMirror
	spCoreClone
	spCoreTxn
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"server.handler", "ingest.apply", "engine.step", "engine.status",
	"snapshot.publish", "snapshot.read", "snapshot.merge", "sched.run",
	"core.allocate", "core.release", "core.mirror", "core.clone", "core.txn",
}

// noSpan is the parent of a span nothing caused: a root, or allocator work
// done with no request open.
const noSpan = -1

// span is one timed interval. Times are nanoseconds since the recorder's
// epoch; Req is the index of the op being served when the span started.
type span struct {
	Name       spanName
	Start, End int64
	Parent     int32
	Req        int32
}

// recorder collects spans from the single driving goroutine and from the
// server's engine goroutines. The driver has at most one request open at a
// time, so a span started while it is open has exactly that one cause.
type recorder struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []span

	cur atomic.Int32 // the driver's open span, or noSpan
	req atomic.Int32 // the op that span serves

	allocCalls, allocHits atomic.Int64
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now()}
	r.cur.Store(noSpan)
	return r
}

func (r *recorder) begin(name spanName, parent int32) int32 {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: now, Parent: parent, Req: r.req.Load()})
	id := int32(len(r.spans) - 1)
	r.mu.Unlock()
	return id
}

// end closes span id and returns its parent.
func (r *recorder) end(id int32) int32 {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
	return r.spans[id].Parent
}

// enter opens a driver-level span for op req, nested in the driver's current
// one; leave closes it. Both are no-ops on a nil recorder and while recording
// is off.
func (r *recorder) enter(name spanName, req int) int32 {
	if r == nil || !r.on.Load() {
		return noSpan
	}
	r.req.Store(int32(req))
	id := r.begin(name, r.cur.Load())
	r.cur.Store(id)
	return id
}

func (r *recorder) leave(id int32) {
	if id == noSpan {
		return
	}
	r.cur.Store(r.end(id))
}

// timed runs fn inside a driver-level span.
func (r *recorder) timed(name spanName, req int, fn func()) {
	id := r.enter(name, req)
	fn()
	r.leave(id)
}

// writeFile writes the spans as compact JSON rows
// [name, start_ns, end_ns, parent, req].
func (r *recorder) writeFile(path, workload, level string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, `{"workload":%q,"level":%q,"columns":["name","start_ns","end_ns","parent","req"],"names":[`, workload, level)
	for i, n := range spanNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	w.WriteString(`],"spans":[`)
	var b []byte
	for i, s := range r.spans {
		b = b[:0]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '\n', '[')
		b = strconv.AppendInt(b, int64(s.Name), 10)
		for _, v := range [...]int64{s.Start, s.End, int64(s.Parent), int64(s.Req)} {
			b = append(b, ',')
			b = strconv.AppendInt(b, v, 10)
		}
		b = append(b, ']')
		w.Write(b)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTotals is the per-name aggregate of a recording.
type layerTotals struct {
	count [numSpanNames]int64
	total [numSpanNames]float64 // µs, children included
	self  [numSpanNames]float64 // µs, minus the part children cover
}

// totals computes count, total and self time per span name. A span's self
// time is its duration minus the union of its children's intervals (lanes run
// in parallel, so children may overlap each other), clipped to the span.
func (r *recorder) totals() layerTotals {
	var t layerTotals
	children := make(map[int32][]int32)
	for i, s := range r.spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	for i, s := range r.spans {
		dur := float64(s.End-s.Start) / 1e3
		t.count[s.Name]++
		t.total[s.Name] += dur
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return r.spans[kids[a]].Start < r.spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(r.spans[k].Start, edge), min(r.spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		t.self[s.Name] += dur - float64(covered)/1e3
	}
	return t
}

// perRequest sums the durations of root spans by the op they served.
func (r *recorder) perRequest(n int) []float64 {
	out := make([]float64, n)
	for _, s := range r.spans {
		if s.Parent == noSpan && s.Name < spCoreAllocate && int(s.Req) < n {
			out[s.Req] += float64(s.End-s.Start) / 1e3
		}
	}
	return out
}

// tracedAlloc decorates an alloc.Allocator with spans around every call. It
// forwards the placement decisions untouched. One engine goroutine uses a
// given allocator at a time, so txn needs no lock.
type tracedAlloc struct {
	inner alloc.Allocator
	rec   *recorder
	txn   int32 // the open core.txn span, or noSpan
}

// tracedCore adds the optional interfaces core.Allocator implements, so the
// engine takes the same code paths with the decorator as without.
type tracedCore struct {
	tracedAlloc
	txnInner alloc.TxnAllocator
	pf       alloc.PartitionFinder
	fc       alloc.FeasibilityClasser
}

// decorate wraps a, forwarding exactly the optional interfaces a has. Only
// the two sets the benchmark meets are supported: none, or core.Allocator's.
func decorate(a alloc.Allocator, rec *recorder) (alloc.Allocator, error) {
	txn, isTxn := a.(alloc.TxnAllocator)
	pf, isPF := a.(alloc.PartitionFinder)
	fc, isFC := a.(alloc.FeasibilityClasser)
	_, isMono := a.(alloc.MonotoneFeasibility)
	base := tracedAlloc{inner: a, rec: rec, txn: noSpan}
	switch {
	case isTxn && isPF && isFC && !isMono:
		return &tracedCore{tracedAlloc: base, txnInner: txn, pf: pf, fc: fc}, nil
	case !isTxn && !isPF && !isFC && !isMono:
		return &base, nil
	}
	return nil, fmt.Errorf("decorate: %s has a set of optional interfaces the tracer does not forward", a.Name())
}

// leaf records one finished call, under the open transaction if there is
// one, else under the driver's open span.
func (a *tracedAlloc) leaf(name spanName, t0 time.Time) {
	end := time.Now()
	parent := a.txn
	if parent == noSpan {
		parent = a.rec.cur.Load()
	}
	r := a.rec
	r.mu.Lock()
	r.spans = append(r.spans, span{
		Name: name, Start: int64(t0.Sub(r.epoch)), End: int64(end.Sub(r.epoch)),
		Parent: parent, Req: r.req.Load(),
	})
	r.mu.Unlock()
}

func (a *tracedAlloc) Name() string            { return a.inner.Name() }
func (a *tracedAlloc) FreeNodes() int          { return a.inner.FreeNodes() }
func (a *tracedAlloc) State() *topology.State  { return a.inner.State() }
func (a *tracedAlloc) Tree() *topology.FatTree { return a.inner.Tree() }

func (a *tracedAlloc) Allocate(job topology.JobID, size int) (*topology.Placement, bool) {
	if !a.rec.on.Load() {
		return a.inner.Allocate(job, size)
	}
	t0 := time.Now()
	pl, ok := a.inner.Allocate(job, size)
	a.leaf(spCoreAllocate, t0)
	a.rec.allocCalls.Add(1)
	if ok {
		a.rec.allocHits.Add(1)
	}
	return pl, ok
}

func (a *tracedAlloc) Release(p *topology.Placement) {
	if !a.rec.on.Load() {
		a.inner.Release(p)
		return
	}
	t0 := time.Now()
	a.inner.Release(p)
	a.leaf(spCoreRelease, t0)
}

func (a *tracedAlloc) Mirror(p *topology.Placement) {
	if !a.rec.on.Load() {
		a.inner.Mirror(p)
		return
	}
	t0 := time.Now()
	a.inner.Mirror(p)
	a.leaf(spCoreMirror, t0)
}

// Clone decorates the copy too, so what-if searches on clones are counted.
func (a *tracedAlloc) Clone() alloc.Allocator {
	t0 := time.Now()
	c := a.inner.Clone()
	if a.rec.on.Load() {
		a.leaf(spCoreClone, t0)
	}
	d, err := decorate(c, a.rec)
	if err != nil {
		panic(err) // a clone has its original's type, which decorate accepted
	}
	return d
}

func (a *tracedCore) Begin() {
	if a.rec.on.Load() {
		a.txn = a.rec.begin(spCoreTxn, a.rec.cur.Load())
	}
	a.txnInner.Begin()
}

func (a *tracedCore) endTxn() {
	if a.txn != noSpan {
		a.rec.end(a.txn)
		a.txn = noSpan
	}
}

func (a *tracedCore) Rollback() { a.txnInner.Rollback(); a.endTxn() }
func (a *tracedCore) Commit()   { a.txnInner.Commit(); a.endTxn() }

func (a *tracedCore) FindJobPartition(job topology.JobID, size int) (*partition.Partition, bool) {
	return a.pf.FindJobPartition(job, size)
}

func (a *tracedCore) FeasibilityClass(job topology.JobID) int32 { return a.fc.FeasibilityClass(job) }
