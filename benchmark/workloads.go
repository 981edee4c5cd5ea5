package main

// The four workloads and one untraced repeat of an HTTP workload: fresh
// server, fixed op counts, every answer checked, then the figures scraped
// from outside the process.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"syscall"
	"time"

	jigsaw "repro"
	"repro/internal/server"
)

// workload names are fixed; later issues cite them.
type workload struct {
	name, why string
	// fullSeconds is how long the full-size repeats of one run take on the
	// reference host; `-seconds N` runs the workload at scale N/fullSeconds,
	// so that every workload measures for about N seconds.
	fullSeconds float64
	// HTTP workloads: the jigsawd configuration.
	radix, shards int
	virtual       bool
}

var workloads = []workload{
	{name: "front-door", fullSeconds: 72, radix: 16, shards: 1, virtual: true,
		why: "batched submits over real HTTP into a separate jigsawd: server, ingest and runtime do the work; core and snapshot almost none"},
	{name: "busy-cluster", fullSeconds: 99, radix: 16, shards: 1, virtual: false,
		why: "full machine, ~2000-job queue, submits, cancels and polls side by side: every write pays engine scheduling and a full snapshot capture"},
	{name: "replay-sim", fullSeconds: 87, radix: 28,
		why: "the paper's batch replay (Synth-28, Oct-Cab) in one goroutine with no HTTP: engine and core are all the time, so it bypasses every front-end change"},
	{name: "sharded-wide", fullSeconds: 70, radix: 16, shards: 4, virtual: true,
		why: "4 shards with 2% cross-shard jobs and merged reads: the only traffic through the gateway's owner map, snapshot.Merge and the coordinator"},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func (w *workload) http() bool { return w.shards > 0 }

// warmupChunks is how many leading chunks of a repeat are warm-up: the one in
// which a fresh server meets its first requests. A replay has none; its first
// chunk schedules the full queue.
func (w *workload) warmupChunks() int {
	if w.http() {
		return 1
	}
	return 0
}

// daemonArgs are the jigsawd flags; the daemon learns nothing else about the
// workload.
func (w *workload) daemonArgs() []string {
	clock := "wall"
	if w.virtual {
		clock = "virtual"
	}
	return []string{"-radix", fmt.Sprint(w.radix), "-clock", clock, "-shards", fmt.Sprint(w.shards)}
}

// serverConfig is the same configuration for an in-process server.
func (w *workload) serverConfig(a jigsaw.Allocator) server.Config {
	return server.Config{Alloc: a, ApplySpeedups: true, VirtualClock: w.virtual, Shards: w.shards}
}

// streams generates the workload's set-up requests and its op stream; the
// first phaseA ops run closed loop, any others open loop.
func (w *workload) streams(seed int64, scale float64) (preload, ops []op, phaseA int) {
	switch w.name {
	case "front-door":
		ops = frontDoorOps(seed, scale)
	case "sharded-wide":
		ops = shardedWideOps(seed, scale)
	case "busy-cluster":
		return busyClusterOps(seed, scale)
	}
	return nil, ops, len(ops)
}

// repeat is what one run of one workload against one fresh process measured.
type repeat struct {
	Metrics   map[string]float64 `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Ops       map[string]int     `json:"ops"`
	StreamSHA string             `json:"stream_sha256,omitempty"`
	// Chunks cut the closed-loop phase at the same ops in every repeat; the
	// run's time-derived metrics come from them (chunkedMetrics).
	Chunks []chunk `json:"chunks"`
	// Samples are the latencies, in ms, of every correctly answered op, by
	// distribution (latencyNames). The printed latency lines and the p99s are
	// taken over the samples of all repeats pooled, so they travel with the
	// repeat; they are dropped before results.json is written.
	Samples map[string][]float64 `json:"samples,omitempty"`

	// closedP50us is the median closed-loop request time seen by the client;
	// the traced run subtracts the handler's median from it (net.us_per_req).
	closedP50us float64
}

func (r *repeat) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// host is the server one repeat runs against and the process it is in.
type host struct {
	target target
	pid    int
	stop   func()
}

// env is how this invocation reaches its servers: the built jigsawd binary,
// or (quick) an in-process server per repeat.
type env struct {
	daemonBin string
	quick     bool
}

func (e *env) start(ctx context.Context, w *workload) (*host, error) {
	if !e.quick {
		d, err := startDaemon(ctx, e.daemonBin, w.daemonArgs()...)
		if err != nil {
			return nil, err
		}
		return &host{target: d.target, pid: d.cmd.Process.Pid, stop: d.stop}, nil
	}
	s, err := newServer(w, nil)
	if err != nil {
		return nil, err
	}
	return &host{target: handlerTarget{s.Handler()}, pid: os.Getpid(), stop: s.Close}, nil
}

// newServer builds the in-process equivalent of `jigsawd <daemonArgs>`; with
// a recorder, on a decorated allocator.
func newServer(w *workload, rec *recorder) (*server.Server, error) {
	tree, err := jigsaw.NewFatTree(w.radix)
	if err != nil {
		return nil, err
	}
	var a jigsaw.Allocator = jigsaw.NewJigsawAllocator(tree)
	if rec != nil {
		if a, err = decorate(a, rec); err != nil {
			return nil, err
		}
	}
	return server.New(w.serverConfig(a))
}

// selfCPUSeconds is this process's user+system CPU time so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// drainLimit bounds the wait for a virtual-clock server to finish every job
// after the last answer.
const drainLimit = 10 * time.Second

// runHTTP is one repeat of an HTTP workload.
func runHTTP(ctx context.Context, e *env, w *workload, seed int64, scale float64) (*repeat, error) {
	r := &repeat{Metrics: map[string]float64{}}
	m := r.Metrics

	// Set-up: generate every request, start the server, preload.
	t0 := time.Now()
	preload, ops, phaseA := w.streams(seed, scale)
	r.StreamSHA = streamHash(preload, ops)
	h, err := e.start(ctx, w)
	if err != nil {
		return nil, err
	}
	defer h.stop()
	pre := make([]sample, len(preload))
	drive(h.target, preload, pre, 0, nil)
	for i := range pre {
		if !pre[i].ok {
			return nil, fmt.Errorf("%s: preload batch %d: status %d", w.name, i, pre[i].status)
		}
	}
	m["setup_s"] = time.Since(t0).Seconds()

	// Phase A, closed loop; phase B (busy-cluster), open loop.
	out := make([]sample, len(ops))
	cpu0, err := procCPUSeconds(h.pid)
	if err != nil {
		return nil, err
	}
	self0 := selfCPUSeconds()
	cuts := newMarks(phaseA, h.pid)
	wallA := drive(h.target, ops[:phaseA], out[:phaseA], 0, cuts).Seconds()
	if err := cuts.failed.Load(); err != nil {
		return nil, *err
	}
	r.Chunks = chunksOf(ops, out, cuts)
	cpu1, err := procCPUSeconds(h.pid)
	if err != nil {
		return nil, err
	}
	var util clusterAnswer
	if err := getJSON(h.target, "/v1/cluster", &util); err != nil {
		return nil, err
	}
	if phaseA < len(ops) {
		drive(h.target, ops[phaseA:], out[phaseA:], busyOpenRate, nil)
	}
	m["client.cpu_s"] = selfCPUSeconds() - self0

	a := tally(ops, out, phaseA)
	r.Samples = a.samples
	r.Attempted, r.Failed = len(ops), a.failed
	r.Ops = map[string]int{"requests": len(ops), "phase_a": phaseA, "phase_b": len(ops) - phaseA,
		"preload_jobs": jobsIn(preload), "jobs": a.jobsSent}

	// After the last answer: drain, then the end-state checks.
	var wideDrain float64
	if w.virtual {
		wideDrain = awaitDrain(h.target, w, r, a)
	} else {
		checkBusyEnd(h.target, r, util)
	}

	unitsA := float64(a.jobsA)
	if !w.virtual {
		unitsA = float64(phaseA)
	}
	m["jobs_per_s"] = float64(a.jobsA) / wallA
	m["ops_per_s"] = float64(phaseA) / wallA
	line := map[string]latencyLine{}
	for _, name := range latencyNames {
		line[name] = summarize(name, a.samples[name])
	}
	latencyMetrics(m, line["write"], line["read"])
	m["slo_ok_frac"] = a.sloOK
	m["cpu_us_per_op"] = (cpu1 - cpu0) * 1e6 / unitsA
	if m["peak_rss_mb"], err = procPeakRSSMB(h.pid); err != nil {
		return nil, err
	}
	if w.virtual {
		m["utilization_pct"] = 100 * util.Utilization.ToNow
	} else {
		m["utilization_pct"] = 100 * a.usedMean
	}

	// Diagnostics and the per-layer figures visible from outside.
	m["client.gen_lag_ms_p50"], m["client.gen_lag_ms_p99"] = line["gen_lag"].P50, line["gen_lag"].P99
	m["client.open_p50_ms"], m["client.open_p99_ms"] = line["open_from_due"].P50, line["open_from_due"].P99
	m["client.max_ms"] = max(line["write"].Max, line["read"].Max, line["open_from_due"].Max, line["wide_submit"].Max)
	r.closedP50us = 1e3 * median(a.closedMs)
	m["snapshot.read_age_ms_p50"], m["snapshot.read_age_ms_p99"] = line["read_age"].P50, line["read_age"].P99
	m["server.resp_bytes_per_req"] = ratio(float64(a.bytes), float64(len(ops)))
	m["shard.wide_submit_ms_p50"] = line["wide_submit"].P50
	m["shard.wide_drain_s"] = wideDrain
	if err := scrapeLayers(h.target, w, m, float64(a.jobsSent+jobsIn(preload))); err != nil {
		return nil, err
	}

	r.Failed += len(r.Problems)
	r.Attempted += len(r.Problems)
	m["client.failed_frac"] = ratio(float64(r.Failed), float64(r.Attempted))
	m["ok_frac"] = 1 - m["client.failed_frac"]
	return r, nil
}

// chunksOf measures the chunks the marks cut the phase into, from the
// correct answers to each chunk's ops. Cross-shard submits are in neither
// latency distribution.
func chunksOf(ops []op, out []sample, m *marks) []chunk {
	chunks := make([]chunk, len(m.at)-1)
	for k := range chunks {
		c := &chunks[k]
		c.Seconds = m.at[k+1].at.Sub(m.at[k].at).Seconds()
		c.CPUSeconds = m.at[k+1].cpu - m.at[k].cpu
		var writes, reads []float64
		for i := k * m.every; i < (k+1)*m.every; i++ {
			if !out[i].ok {
				continue
			}
			c.Ops++
			c.Jobs += ops[i].jobs
			ms := float64(out[i].end.Sub(out[i].start)) / 1e6
			switch {
			case ops[i].kind == opSubmitWide:
			case ops[i].kind.isRead():
				reads = append(reads, ms)
			default:
				writes = append(writes, ms)
			}
		}
		c.latencies(writes, reads)
	}
	return chunks
}

// tallied is the client-side summary of one repeat's samples.
type tallied struct {
	samples         map[string][]float64 // ms, by latencyNames
	closedMs        []float64            // every phase-A op
	sloOK           float64
	failed          int
	jobsSent, jobsA int // jobs in accepted submits: whole run, phase A
	wideAccepted    int
	bytes           int
	usedMean        float64 // mean used/nodes over phase A's cluster reads
}

// jobsIn is the number of jobs the ops submit.
func jobsIn(ops []op) int {
	n := 0
	for i := range ops {
		n += ops[i].jobs
	}
	return n
}

// tally classifies the samples. Latency distributions hold correct answers
// only; a wrong or missing answer is a failure and misses the latency limit.
func tally(ops []op, out []sample, phaseA int) *tallied {
	a := &tallied{samples: map[string][]float64{}}
	add := func(name string, ms float64) { a.samples[name] = append(a.samples[name], ms) }
	sloOK, sloN := 0, 0
	var usedSum, usedN float64
	for i := range ops {
		o, s := &ops[i], &out[i]
		ms := float64(s.end.Sub(s.start)) / 1e6
		a.bytes += s.bytes
		inA := i < phaseA
		// The limit applies to phase B where there is one, else to phase A.
		if hasB := phaseA < len(ops); inA != hasB {
			sloN++
			if s.ok && s.end.Sub(s.start) <= sloLimit {
				sloOK++
			}
		}
		if !s.ok {
			a.failed++
			continue
		}
		a.jobsSent += o.jobs
		if !inA {
			add("open_from_due", ms)
			add("gen_lag", float64(s.lag)/1e6)
			continue
		}
		a.jobsA += o.jobs
		a.closedMs = append(a.closedMs, ms)
		switch {
		case o.kind == opSubmitWide:
			add("wide_submit", ms)
			a.wideAccepted++
		case o.kind.isRead():
			add("read", ms)
			if o.kind == opGetCluster {
				usedSum += s.used
				usedN++
			}
			if s.ageMs != 0 {
				add("read_age", s.ageMs)
			}
		default:
			add("write", ms)
		}
	}
	a.sloOK = ratio(float64(sloOK), float64(sloN))
	a.usedMean = ratio(usedSum, usedN)
	return a
}

// awaitDrain waits for a virtual-clock server to run every accepted job to
// completion, then checks the end state: nothing queued or running, and
// completed == submitted == accepted. It returns how long the cross-shard
// queue took to empty.
func awaitDrain(t target, w *workload, r *repeat, a *tallied) (wideDrain float64) {
	t0 := time.Now()
	var sh shardsAnswer
	if w.shards > 1 {
		for {
			if err := getJSON(t, "/v1/shards", &sh); err != nil {
				r.problemf("%v", err)
				return 0
			}
			if sh.Cross.Waiting == 0 || time.Since(t0) > drainLimit {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		wideDrain = time.Since(t0).Seconds()
		// A wide job still waiting was never placed: each is a failed op.
		r.Failed += sh.Cross.Waiting
		if int(sh.Cross.Placed)+sh.Cross.Waiting != a.wideAccepted {
			r.problemf("cross placed %d + waiting %d != wide jobs accepted %d", sh.Cross.Placed, sh.Cross.Waiting, a.wideAccepted)
		}
	}
	var c clusterAnswer
	for {
		if err := getJSON(t, "/v1/cluster", &c); err != nil {
			r.problemf("%v", err)
			return wideDrain
		}
		if (c.QueueDepth == 0 && c.RunningJobs == 0) || time.Since(t0) > drainLimit {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if c.QueueDepth != 0 || c.RunningJobs != 0 {
		r.problemf("not drained after %v: queue_depth %d, running_jobs %d", drainLimit, c.QueueDepth, c.RunningJobs)
	}
	if c.Counts.Completed != c.Counts.Submitted {
		r.problemf("completed %d != submitted %d", c.Counts.Completed, c.Counts.Submitted)
	}
	// Each shard a cross-shard job runs on counts its slice as one job.
	narrow := int64(a.jobsSent - a.wideAccepted)
	lo, hi := narrow+int64(a.wideAccepted), narrow+int64(a.wideAccepted*max(w.shards, 1))
	if c.Counts.Submitted < lo || c.Counts.Submitted > hi {
		r.problemf("submitted %d outside [%d, %d] for %d jobs accepted", c.Counts.Submitted, lo, hi, a.jobsSent)
	}
	return wideDrain
}

// checkBusyEnd checks the wall-clock server's end state.
func checkBusyEnd(t target, r *repeat, c clusterAnswer) {
	if c.UsedNodes > c.Nodes || c.UsedNodes <= 0 {
		r.problemf("used_nodes %d of %d", c.UsedNodes, c.Nodes)
	}
	var buf bytes.Buffer
	if status, err := t.do("GET", "/healthz", nil, &buf); err != nil || status != http.StatusOK || buf.String() != "ok\n" {
		r.problemf("/healthz: status %d body %q err %v", status, buf.String(), err)
	}
}

// scrapeLayers fills in the per-layer metrics read from the server after the
// run: /metrics, /v1/shards, the heap profile's MemStats and /proc.
func scrapeLayers(t target, w *workload, m map[string]float64, jobs float64) error {
	s, err := scrapeMetrics(t)
	if err != nil {
		return err
	}
	m["server.http_non2xx"] = s.non2xx()
	m["ingest.accepted"] = s["ingest_accepted_total"]
	m["ingest.rejected"] = s["ingest_rejected_total"]
	m["ingest.shed_frac"] = ratio(s["ingest_rejected_total"], s["ingest_accepted_total"]+s["ingest_rejected_total"])
	m["ingest.queue_wait_us_mean"] = 1e6 * ratio(s["request_queue_wait_seconds_sum"], s["request_queue_wait_seconds_count"])
	m["ingest.queue_wait_us_p99"] = 1e6 * s["request_queue_wait_seconds_p99"]
	m["engine.busy_us_per_op"] = 1e6 * ratio(s["schedule_latency_seconds_sum"], s["schedule_latency_seconds_count"])
	hits, misses := s["feasibility_cache_hits_total"], s["feasibility_cache_misses_total"]
	m["engine.feas_hit_ratio"] = ratio(hits, hits+misses)
	m["engine.alloc_calls_per_job"] = ratio(hits+misses, jobs)
	m["engine.started"] = s["jobs_started_total"]
	m["engine.completed"] = s["jobs_completed_total"]
	m["engine.cancelled"] = s["jobs_cancelled_total"]
	m["snapshot.publishes"] = s["snapshot_publishes_total"]

	if w.shards > 1 {
		var sh shardsAnswer
		if err := getJSON(t, "/v1/shards", &sh); err != nil {
			return err
		}
		m["shard.cross_attempts"] = float64(sh.Cross.Attempts)
		m["shard.cross_placed"] = float64(sh.Cross.Placed)
		m["shard.cross_conflicts"] = float64(sh.Cross.Conflicts)
		m["shard.cross_infeasible"] = float64(sh.Cross.Infeasible)
		m["shard.cross_parks"] = float64(sh.Cross.Parks)
		m["shard.place_ratio"] = ratio(float64(sh.Cross.Placed), float64(sh.Cross.Attempts))
	}

	ms, err := scrapeMemStats(t)
	if err != nil {
		return err
	}
	m["runtime.gc_cpu_frac"] = ms["GCCPUFraction"]
	m["runtime.num_gc"] = ms["NumGC"]
	m["runtime.mallocs_per_job"] = ratio(ms["Mallocs"], jobs)
	m["runtime.alloc_bytes_per_job"] = ratio(ms["TotalAlloc"], jobs)
	m["runtime.heap_alloc_mb_end"] = ms["HeapAlloc"] / (1 << 20)
	m["runtime.rss_bytes_per_job"] = ratio(m["peak_rss_mb"]*(1<<20), jobs)
	return nil
}
