package main

// The traced layer replay of an HTTP workload. The identical op stream is
// delivered by one caller at two levels, both in this process:
//
//	L1: server.New on a decorated allocator, requests through
//	    Server.Handler().ServeHTTP. Root span server.handler; children are the
//	    core.* calls made while it is open. The caller sends the next request
//	    at once, so a virtual-clock lane's event steps for one request overlap
//	    the next one's window: L1 gives the handler's cost, L2 the split.
//	L2: bare engines on decorated allocators, driven in a lane's own order:
//	    ingest.Applier.Apply per op, snapshot.Publisher.Publish per drain,
//	    Engine.Step until idle (virtual clock) or AdvanceTo (wall clock).
//
// L2 has no HTTP, JSON, routing or goroutine hand-off, so L1 − L2 per request
// is what the server layer itself costs. The cross-shard coordinator is not
// reachable from outside internal/server: L2 skips wide jobs, and the shard.*
// metrics come from the untraced daemon.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/scenario"
	"repro/internal/shard"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
)

// driveL1 delivers ops one at a time through an in-process server's handler.
// With record off the decorator stays in place but records nothing, which is
// the baseline for the tracing overhead.
func driveL1(w *workload, preload, ops []op, record bool) (*recorder, time.Duration, error) {
	rec := newRecorder()
	s, err := newServer(w, rec)
	if err != nil {
		return nil, 0, err
	}
	defer s.Close()
	t := handlerTarget{s.Handler()}
	var buf bytes.Buffer
	deliver := func(i int, o *op) error {
		id := rec.enter(spServerHandler, i)
		status, _ := t.do(o.method, o.path, o.body, &buf)
		rec.leave(id)
		if !check(o, status, buf.Bytes()).ok {
			return fmt.Errorf("%s L1: op %d %s %s: status %d, wrong answer", w.name, i, o.method, o.path, status)
		}
		return nil
	}
	for i := range preload {
		if err := deliver(i, &preload[i]); err != nil {
			return nil, 0, err
		}
	}
	rec.on.Store(record)
	t0 := time.Now()
	for i := range ops {
		if err := deliver(i, &ops[i]); err != nil {
			return nil, 0, err
		}
	}
	wall := time.Since(t0)
	if w.virtual {
		// Let the lanes finish every job, so background work is complete.
		var c clusterAnswer
		for t1 := time.Now(); time.Since(t1) < drainLimit; time.Sleep(time.Millisecond) {
			if err := getJSON(t, "/v1/cluster", &c); err != nil {
				return nil, 0, err
			}
			if c.QueueDepth == 0 && c.RunningJobs == 0 {
				break
			}
		}
	}
	rec.on.Store(false)
	return rec, wall, nil
}

// l2lane is what a server lane owns, minus its goroutine and ingest queue.
type l2lane struct {
	eng *engine.Engine
	app *ingest.Applier
	pub *snapshot.Publisher
}

// l2 is the L2 replay of one workload: the lanes' engines and the gateway's
// routing state, driven by one goroutine.
type l2 struct {
	w       *workload
	rec     *recorder
	now     func() float64 // wall-clock seconds, for wall-clock lanes
	tree    *topology.FatTree
	cells   []shard.Cell
	maxCell int
	lanes   []*l2lane
	nextID  int64
	perLane [][]*ingest.Op
}

// publishEverySteps mirrors the lane's mid-replay publish cadence
// (server.publishEveryStepsVirtual).
const publishEverySteps = 64

// newL2 builds w's lanes on base (and clones of it) the way server.New does.
func newL2(w *workload, base alloc.Allocator, rec *recorder, now func() float64) (*l2, error) {
	tree := base.Tree()
	cells, err := shard.Plan(tree, w.shards)
	if err != nil {
		return nil, err
	}
	// Clone every lane's allocator from the pristine one before any lane
	// restricts its copy to its cell.
	allocs := make([]alloc.Allocator, len(cells))
	allocs[0] = base
	for i := 1; i < len(cells); i++ {
		allocs[i] = base.Clone()
	}
	l := &l2{
		w: w, rec: rec, now: now, tree: tree, cells: cells,
		maxCell: shard.MaxCellNodes(tree, cells),
		lanes:   make([]*l2lane, len(cells)), perLane: make([][]*ingest.Op, len(cells)),
	}
	for i, c := range cells {
		cfg := engine.Config{Alloc: allocs[i], Scenario: scenario.None{}, ApplySpeedups: true, MeasureAllocTime: true}
		if len(cells) > 1 {
			allocs[i].State().RestrictToPods(c.PodLo, c.PodHi)
			cfg.TotalNodes = c.Nodes(tree)
		}
		eng, err := engine.New(cfg)
		if err != nil {
			return nil, err
		}
		l.lanes[i] = &l2lane{eng: eng, app: ingest.NewApplier(eng), pub: snapshot.NewPublisher(eng)}
		if len(cells) > 1 {
			l.lanes[i].pub.CapturePodSummaries()
		}
	}
	return l, nil
}

func (l *l2) publish(ln *l2lane, req int) {
	l.rec.timed(spSnapshotPublish, req, func() { ln.pub.Publish(ln.eng) })
}

// drain applies one lane's share of a request the way lane.runOps and the lane
// loop around it do.
func (l *l2) drain(ln *l2lane, req int, batch []*ingest.Op) {
	if !l.w.virtual {
		l.rec.timed(spEngineStep, req, func() { ln.eng.AdvanceTo(l.now()) })
	}
	for _, o := range batch {
		l.rec.timed(spIngestApply, req, func() { ln.app.Apply(o) })
	}
	l.publish(ln, req)
	if !l.w.virtual {
		return
	}
	for steps := 0; ln.eng.PendingEvents() > 0; {
		l.rec.timed(spEngineStep, req, func() { ln.eng.Step() })
		if steps++; steps >= publishEverySteps {
			l.publish(ln, req)
			steps = 0
		}
	}
	l.publish(ln, req) // the lane publishes once more when it goes idle
}

// replay does for op o what the server's lanes do for it.
func (l *l2) replay(req int, o *op) error {
	switch o.kind {
	case opBatch, opSubmit, opSubmitWide:
		jobs, err := jobsOf(o)
		if err != nil {
			return err
		}
		for i := range l.perLane {
			l.perLane[i] = l.perLane[i][:0]
		}
		for _, j := range jobs {
			li := 0
			if len(l.lanes) > 1 {
				// The gateway assigns ids and routes; wide jobs belong to the
				// coordinator, which L2 cannot reach.
				l.nextID++
				j.ID = l.nextID
				if j.Size > l.maxCell {
					continue
				}
				li = shard.RouteHash(l.tree, l.cells, j.ID, j.Size)
			}
			l.perLane[li] = append(l.perLane[li], &ingest.Op{Kind: ingest.Submit, Job: j})
		}
		for li, batch := range l.perLane {
			if len(batch) == 0 {
				continue
			}
			l.drain(l.lanes[li], req, batch)
			for _, b := range batch {
				if b.Err != nil {
					return fmt.Errorf("%s L2: op %d: %w", l.w.name, req, b.Err)
				}
			}
		}
	case opCancel:
		c := &ingest.Op{Kind: ingest.Cancel, ID: o.id}
		l.drain(l.lanes[0], req, []*ingest.Op{c})
		if !c.Known || c.Err != nil {
			return fmt.Errorf("%s L2: op %d: cancel %d: known %v: %v", l.w.name, req, o.id, c.Known, c.Err)
		}
	case opGetJob:
		// Active jobs are answered from the snapshot; terminal ones by the
		// engine goroutine, which publishes after every admin closure.
		ln, found := l.lanes[0], false
		l.rec.timed(spSnapshotRead, req, func() { _, found = ln.pub.Load().Jobs[o.id] })
		if !found {
			l.rec.timed(spEngineStatus, req, func() { _, found = ln.eng.Status(o.id) })
			l.publish(ln, req)
		}
		if !found {
			return fmt.Errorf("%s L2: op %d: unknown job %d", l.w.name, req, o.id)
		}
	default:
		if len(l.lanes) == 1 {
			l.rec.timed(spSnapshotRead, req, func() { l.lanes[0].pub.Load() })
			break
		}
		l.rec.timed(spSnapshotMerge, req, func() {
			views := make([]*snapshot.View, len(l.lanes))
			for i, ln := range l.lanes {
				views[i] = ln.pub.Load()
			}
			snapshot.Merge(views)
		})
	}
	return nil
}

// jobsOf decodes the jobs a submit op carries.
func jobsOf(o *op) ([]trace.Job, error) {
	type spec struct {
		ID      int64   `json:"id"`
		Size    int     `json:"size"`
		Runtime float64 `json:"runtime"`
	}
	var specs []spec
	if o.kind == opBatch {
		var b struct {
			Jobs []spec `json:"jobs"`
		}
		if err := json.Unmarshal(o.body, &b); err != nil {
			return nil, err
		}
		specs = b.Jobs
	} else {
		specs = make([]spec, 1)
		if err := json.Unmarshal(o.body, &specs[0]); err != nil {
			return nil, err
		}
	}
	jobs := make([]trace.Job, len(specs))
	for i, s := range specs {
		jobs[i] = trace.Job{ID: s.ID, Size: s.Size, Runtime: s.Runtime}
	}
	return jobs, nil
}

// driveL2 replays ops against bare engines on decorated allocators, recording
// the op stream but not the preload.
func driveL2(w *workload, preload, ops []op) (*recorder, error) {
	rec := newRecorder()
	tree, err := topology.New(w.radix)
	if err != nil {
		return nil, err
	}
	base, err := decorate(core.NewAllocator(tree), rec)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	l, err := newL2(w, base, rec, func() float64 { return time.Since(start).Seconds() })
	if err != nil {
		return nil, err
	}
	for i := range preload {
		if err := l.replay(i, &preload[i]); err != nil {
			return nil, err
		}
	}
	rec.on.Store(true)
	for i := range ops {
		if err := l.replay(i, &ops[i]); err != nil {
			return nil, err
		}
	}
	rec.on.Store(false)
	return rec, nil
}

// layerRow is one printed row of the per-layer table.
type layerRow struct {
	Level       string  `json:"level"`
	Span        string  `json:"span"`
	Count       int64   `json:"count"`
	TotalMs     float64 `json:"total_ms"`
	SelfMs      float64 `json:"self_ms"`
	SelfUsPerOp float64 `json:"self_us_per_op"`
}

func layerRows(level string, t layerTotals, nOps int) []layerRow {
	var rows []layerRow
	for n := spanName(0); n < numSpanNames; n++ {
		if t.count[n] == 0 {
			continue
		}
		rows = append(rows, layerRow{
			Level: level, Span: spanNames[n], Count: t.count[n],
			TotalMs: t.total[n] / 1e3, SelfMs: t.self[n] / 1e3,
			SelfUsPerOp: t.self[n] / float64(nOps),
		})
	}
	return rows
}

// layerReplay runs the traced replay of w — L1 with recording off and on,
// then L2 (or, for replay-sim, the batch replay on a decorated allocator) —
// writes the spans under outDir, fills the trace-sourced per-layer metrics
// into untraced.Metrics and returns the per-layer table. End-to-end metrics
// are never taken from here.
func layerReplay(w *workload, seed int64, scale float64, outDir string, untraced *repeat) ([]layerRow, error) {
	m := untraced.Metrics
	if !w.http() {
		rec := newRecorder()
		rec.on.Store(true)
		traced, err := runReplay(seed, scale, rec)
		if err != nil {
			return nil, err
		}
		if err := rec.writeFile(filepath.Join(outDir, "trace-"+w.name+".json"), w.name, "sched"); err != nil {
			return nil, err
		}
		t := rec.totals()
		jobs := untraced.Attempted
		coreMetrics(m, t, rec, float64(jobs))
		m["engine.self_us_per_op"] = t.self[spSchedRun] / float64(jobs)
		host := func(r *repeat) float64 { return r.Metrics["sched.host_s.synth28"] + r.Metrics["sched.host_s.octcab"] }
		m["trace.overhead_frac"] = host(traced)/host(untraced) - 1
		return layerRows("sched", t, jobs), nil
	}

	preload, ops, phaseA := w.streams(seed, scale)
	ops = ops[:phaseA]
	_, wallOff, err := driveL1(w, preload, ops, false)
	if err != nil {
		return nil, err
	}
	l1, wallOn, err := driveL1(w, preload, ops, true)
	if err != nil {
		return nil, err
	}
	l2, err := driveL2(w, preload, ops)
	if err != nil {
		return nil, err
	}
	for level, rec := range map[string]*recorder{"L1": l1, "L2": l2} {
		if err := rec.writeFile(filepath.Join(outDir, "trace-"+w.name+"."+level+".json"), w.name, level); err != nil {
			return nil, err
		}
	}

	nOps, jobs := float64(len(ops)), float64(jobsIn(ops))
	units := jobs // what cpu_us_per_op counts: jobs, or ops on busy-cluster
	if !w.virtual {
		units = nOps
	}
	t1, t2 := l1.totals(), l2.totals()
	var handler, submit, read []float64
	for _, s := range l1.spans {
		if s.Name != spServerHandler {
			continue
		}
		us := float64(s.End-s.Start) / 1e3
		handler = append(handler, us)
		if ops[s.Req].kind.isRead() {
			read = append(read, us)
		} else {
			submit = append(submit, us)
		}
	}
	mean := func(xs []float64) float64 {
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		return ratio(sum, float64(len(xs)))
	}
	var l2total float64
	for _, us := range l2.perRequest(len(ops)) {
		l2total += us
	}
	m["server.submit_handler_us_per_req"] = mean(submit)
	m["server.read_handler_us_per_req"] = mean(read)
	m["server.self_us_per_job"] = (t1.total[spServerHandler] - l2total) / units
	m["ingest.apply_us_per_op"] = ratio(t2.total[spIngestApply], float64(t2.count[spIngestApply]))
	m["engine.self_us_per_op"] = (t2.self[spIngestApply] + t2.self[spEngineStep] + t2.self[spEngineStatus]) / nOps
	m["engine.step_us_per_event"] = ratio(t2.total[spEngineStep], float64(t2.count[spEngineStep]))
	// A virtual-clock lane's steps run after the answer has gone out: work no
	// request waits for. (A wall-clock lane only steps inside a request.)
	if w.virtual {
		m["engine.background_us_per_job"] = t2.total[spEngineStep] / jobs
	}
	coreMetrics(m, t2, l2, nOps)
	m["snapshot.publish_us"] = ratio(t2.total[spSnapshotPublish], float64(t2.count[spSnapshotPublish]))
	m["snapshot.publish_us_per_op"] = t2.total[spSnapshotPublish] / nOps
	m["snapshot.merge_us"] = ratio(t2.total[spSnapshotMerge], float64(t2.count[spSnapshotMerge]))
	sort.Float64s(handler)
	m["net.us_per_req"] = untraced.closedP50us - stats.Percentile(handler, 50)
	m["trace.overhead_frac"] = wallOn.Seconds()/wallOff.Seconds() - 1
	m["trace.l2_over_l1"] = ratio(l2total, t1.total[spServerHandler])
	return append(layerRows("L1", t1, len(ops)), layerRows("L2", t2, len(ops))...), nil
}

// coreMetrics fills the core.* metrics from a recording's allocator spans.
func coreMetrics(m map[string]float64, t layerTotals, rec *recorder, nOps float64) {
	per := func(n spanName) float64 { return ratio(t.total[n], float64(t.count[n])) }
	m["core.allocate_calls"] = float64(t.count[spCoreAllocate])
	m["core.allocate_us_per_call"] = per(spCoreAllocate)
	m["core.allocate_hit_ratio"] = ratio(float64(rec.allocHits.Load()), float64(rec.allocCalls.Load()))
	m["core.release_us_per_call"] = per(spCoreRelease)
	m["core.clone_calls"] = float64(t.count[spCoreClone])
	m["core.clone_us_per_call"] = per(spCoreClone)
	m["core.txn_count"] = float64(t.count[spCoreTxn])
	var self float64
	for n := spCoreAllocate; n < numSpanNames; n++ {
		self += t.self[n]
	}
	m["core.us_per_op"] = self / nOps
}
