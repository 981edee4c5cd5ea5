package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/topology"
)

// Same seed, same op stream; another seed, another one.
func TestStreamsAreDeterministic(t *testing.T) {
	hash := func(w *workload, seed int64) string {
		if w.http() {
			preload, ops, _ := w.streams(seed, quickScale)
			return streamHash(preload, ops)
		}
		var b bytes.Buffer
		for _, tr := range replayTraces(seed, quickScale) {
			if err := json.NewEncoder(&b).Encode(tr.Jobs); err != nil {
				t.Fatal(err)
			}
		}
		return streamHash([]op{{body: b.Bytes()}})
	}
	for i := range workloads {
		w := &workloads[i]
		a, b, c := hash(w, 1), hash(w, 1), hash(w, 2)
		if a != b {
			t.Errorf("%s: seed 1 gave %s then %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same stream %s", w.name, a)
		}
	}
}

// The daemon must not be able to tell which workload it serves: neither its
// flags nor any request names one.
func TestNothingNamesTheWorkload(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		if !w.http() {
			continue
		}
		preload, ops, _ := w.streams(1, quickScale)
		texts := w.daemonArgs()
		for _, o := range append(preload, ops...) {
			texts = append(texts, o.path, string(o.body))
		}
		for _, text := range texts {
			for _, other := range workloads {
				if strings.Contains(text, other.name) || strings.Contains(text, "seed") {
					t.Fatalf("%s: %q names a workload or the seed", w.name, text)
				}
			}
		}
	}
}

// The busy-cluster stream's own bookkeeping: ids are issued once, an id is
// cancelled at most once and only after busyGap ops, and a read expects
// "cancelled" only of a cancel that old.
func TestBusyClusterStreamIsConsistent(t *testing.T) {
	preload, ops, phaseA := busyClusterOps(3, 0.1)
	if got := jobsIn(preload); got != busyPreload {
		t.Fatalf("preload holds %d jobs, want %d", got, busyPreload)
	}
	if phaseA <= 0 || phaseA >= len(ops) {
		t.Fatalf("phase A is %d of %d ops", phaseA, len(ops))
	}
	submitted := map[int64]int{}
	for id := int64(1); id <= busyPreload; id++ {
		submitted[id] = -busyGap
	}
	cancelled := map[int64]int{}
	for k, o := range ops {
		switch o.kind {
		case opSubmit:
			if _, dup := submitted[o.id]; dup {
				t.Fatalf("op %d submits id %d twice", k, o.id)
			}
			submitted[o.id] = k
		case opCancel, opGetJob:
			at, ok := submitted[o.id]
			if !ok || at > k-busyGap {
				t.Fatalf("op %d names id %d submitted at op %d", k, o.id, at)
			}
			c, wasCancelled := cancelled[o.id]
			if o.kind == opCancel {
				if wasCancelled {
					t.Fatalf("op %d cancels id %d again", k, o.id)
				}
				cancelled[o.id] = k
			} else if o.expect == expectCancelled && (!wasCancelled || c > k-busyGap) {
				t.Fatalf("op %d expects id %d cancelled; cancel at %d (%v)", k, o.id, c, wasCancelled)
			}
		}
	}
}

// The tracer must not change a single decision: the same 5 000-op stream
// through a plain and a decorated core.Allocator ends in identical engines.
func TestDecoratorChangesNoDecision(t *testing.T) {
	w := workloadByName("busy-cluster")
	preload, ops, _ := busyClusterOps(11, 5000.0/(busyPhaseA+busyPhaseB))
	if len(ops) != 5000 {
		t.Fatalf("stream has %d ops, want 5000", len(ops))
	}
	run := func(decorated bool) *l2 {
		tree, err := topology.New(w.radix)
		if err != nil {
			t.Fatal(err)
		}
		rec := newRecorder()
		rec.on.Store(true)
		var base alloc.Allocator = core.NewAllocator(tree)
		if decorated {
			if base, err = decorate(base, rec); err != nil {
				t.Fatal(err)
			}
		}
		k := 0
		l, err := newL2(w, base, rec, func() float64 { k++; return float64(k) })
		if err != nil {
			t.Fatal(err)
		}
		for i := range preload {
			if err := l.replay(i, &preload[i]); err != nil {
				t.Fatal(err)
			}
		}
		for i := range ops {
			if err := l.replay(i, &ops[i]); err != nil {
				t.Fatal(err)
			}
		}
		if decorated && len(rec.spans) < len(ops) {
			t.Fatalf("decorated run recorded %d spans for %d ops", len(rec.spans), len(ops))
		}
		return l
	}
	plain, traced := run(false).lanes[0].eng, run(true).lanes[0].eng
	if p, d := plain.Counts(), traced.Counts(); p != d {
		t.Errorf("counts differ: plain %+v, decorated %+v", p, d)
	}
	if p, d := plain.StateVersion(), traced.StateVersion(); p != d {
		t.Errorf("state version differs: plain %d, decorated %d", p, d)
	}
	if p, d := plain.UtilizationTo(plain.Now()), traced.UtilizationTo(traced.Now()); p != d {
		t.Errorf("utilization differs: plain %v, decorated %v", p, d)
	}
	if plain.Counts().Started == 0 || plain.Counts().Cancelled == 0 {
		t.Errorf("the stream exercised nothing: %+v", plain.Counts())
	}
}

// replay-sim steps the engine itself to time each step; it must reach the
// result sched.Scheduler.Run reaches.
func TestReplayMatchesSchedRun(t *testing.T) {
	for _, tr := range replayTraces(5, quickScale) {
		tree, err := topology.New(tr.SimRadix)
		if err != nil {
			t.Fatal(err)
		}
		got, _, steps, _, err := replayOne(core.NewAllocator(tree), tr)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sched.New(core.NewAllocator(tree), scenario.None{}).Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		if len(steps) == 0 || len(got.Records) != len(tr.Jobs) {
			t.Fatalf("%s: %d steps, %d of %d jobs completed", tr.Name, len(steps), len(got.Records), len(tr.Jobs))
		}
		if g, w := metrics.Utilization(got), metrics.Utilization(want); g != w {
			t.Errorf("%s: utilization %v, Run gives %v", tr.Name, g, w)
		}
		if g, w := metrics.Makespan(got), metrics.Makespan(want); g != w {
			t.Errorf("%s: makespan %v, Run gives %v", tr.Name, g, w)
		}
		if !reflect.DeepEqual(got.Records, want.Records) || got.AllocCalls != want.AllocCalls {
			t.Errorf("%s: records or alloc calls differ from Run", tr.Name)
		}
	}
}

// Bursts that leave every chunk undisturbed in two repeats move no chunked
// metric; a chunk slow in all repeats but one does.
func TestChunkedMetricsIgnoreABurst(t *testing.T) {
	run := func(slow map[[2]int]bool) map[string]float64 {
		reps := make([]*repeat, repeats)
		for i := range reps {
			reps[i] = &repeat{}
			for k := 0; k < 6; k++ {
				c := chunk{Seconds: 0.5, CPUSeconds: 0.2, Jobs: 8000, Ops: 500, WriteP50: 0.3, WriteTail: 3, ReadP50: 0.2, ReadTail: 2}
				if k%2 == 1 { // a chunk with a GC cycle in it
					c.Seconds, c.CPUSeconds, c.WriteTail = 0.7, 0.4, 5
				}
				if slow[[2]int{i, k}] {
					c.Seconds, c.CPUSeconds, c.WriteP50, c.WriteTail = 1.4*c.Seconds, 1.4*c.CPUSeconds, 1.4*c.WriteP50, 1.4*c.WriteTail
				}
				reps[i].Chunks = append(reps[i].Chunks, c)
			}
		}
		return chunkedMetrics(reps, false, 1)
	}
	quietRun := run(nil)
	if got, want := quietRun["jobs_per_s"], 5*8000/(2*0.5+3*0.7); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("jobs_per_s = %v, want %v: warm-up chunk dropped, GC chunks kept", got, want)
	}
	bursts, slow := map[[2]int]bool{}, map[[2]int]bool{}
	for i := 0; i < repeats-1; i++ {
		slow[[2]int{i, 3}] = true
		if i < repeats-2 {
			bursts[[2]int{i, 2}], bursts[[2]int{repeats - 1 - i, 3}], bursts[[2]int{i, 4}] = true, true, true
		}
	}
	if burst := run(bursts); !reflect.DeepEqual(burst, quietRun) {
		t.Errorf("bursts that spare two repeats of every chunk moved the metrics:\n%v\n%v", burst, quietRun)
	}
	slowed := run(slow)
	for _, name := range []string{"jobs_per_s", "cpu_us_per_op", "write_p50_ms", "write_tail_ms"} {
		better := slowed[name] < quietRun[name]
		if name == "jobs_per_s" {
			better = !better
		}
		if better || slowed[name] == quietRun[name] {
			t.Errorf("%s: a chunk slow in all repeats but one gave %v, quiet run %v", name, slowed[name], quietRun[name])
		}
	}
}

// The smoke run tier-1 makes: every workload at 1/50 size against an
// in-process server, untraced and traced, every check on.
func TestQuickSmoke(t *testing.T) {
	e := &env{quick: true}
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			o, err := measure(context.Background(), e, w, 1, quickScale, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !o.Correct || o.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v", w.name, traced, o.Correct, o.Attempted, o.Failed, o.Problems)
			}
			for _, d := range endToEnd {
				if v := o.EndToEnd[d.name].Value; !(v > 0) {
					t.Errorf("%s traced=%v: %s = %v, want > 0", w.name, traced, d.name, v)
				}
			}
			if !traced {
				continue
			}
			if len(o.Layers) == 0 {
				t.Errorf("%s: the traced run printed no layer table", w.name)
			}
			for name, wantNonZero := range map[string]bool{
				"core.allocate_calls":    true,
				"engine.self_us_per_op":  true,
				"snapshot.publishes":     w.http(),
				"ingest.apply_us_per_op": w.http(),
				"shard.cross_placed":     w.shards > 1,
				"sched.host_s.octcab":    !w.http(),
			} {
				if got := o.PerLayer[name].Value; (got != 0) != wantNonZero {
					t.Errorf("%s: %s = %v, want non-zero: %v", w.name, name, got, wantNonZero)
				}
			}
			var line struct {
				Metrics map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(o.contractLine(true)), &line); err != nil || len(line.Metrics) != len(perLayer) {
				t.Errorf("%s: traced result line carries %d metrics, want %d (%v)", w.name, len(line.Metrics), len(perLayer), err)
			}
		}
	}
}

// BENCHMARK.json is the contract; metrics.go and workloads.go are what the
// harness prints. They must list the same things, inside the contract's limits.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", spec.Paths, spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: listed %q, harness %q (why: %d chars)", i, spec.Workloads[i].Name, w.name, len(w.why))
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	compare := func(kind string, listed []metric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: %d listed, the harness has %d", kind, len(listed), len(defs))
		}
		for i, d := range defs {
			m := listed[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: listed %+v, harness %+v", kind, i, m, d)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s %q (unit %q) breaks the naming rules or repeats", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound != d.bound || d.bound <= 0 || d.bound > 0.25)) {
				t.Errorf("%s %q: bound %v, harness %v", kind, m.Name, m.Bound, d.bound)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd, true)
	compare("per_layer", spec.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}
