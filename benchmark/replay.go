package main

// The replay-sim workload: the paper's batch replay of two traces through
// sched/engine/core in one goroutine, with no HTTP and no daemon.

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/trace"
)

// replayTraces builds the two traces: Synth-28 (every job arrives at t=0, so
// the queue starts full and searches go three levels deep) and Oct-Cab
// (arrivals spread over a month on 1458 nodes). The parameters are those of
// trace.Synth28 and trace.OctCab with the generator seed offset by seed, so
// seed 0 is the paper's own pair.
func replayTraces(seed int64, scale float64) []*trace.Trace {
	return []*trace.Trace{
		trace.Synth(trace.SynthConfig{
			Name: "synth28", Jobs: scaled(10000, scale), MeanSize: 28, MaxSize: 241, SnapUnit: 14,
			MinRun: 20, MaxRun: 3000, SystemNodes: 5488, SimRadix: 28, Seed: 128 + seed,
		}),
		trace.LLNL(trace.LLNLConfig{
			Name: "octcab", Jobs: scaled(125228, scale), SystemNodes: 1296, MaxSize: 258, MeanSize: 11,
			Pow2Boost: 0.45, MinRun: 1, MaxRun: 93623, RealArrivals: true, LoadFactor: 1.25, Seed: 1410 + seed,
		}),
	}
}

// replayMarkEvery is how many engine steps lie between two readings of the
// clock, the CPU time and the completion count; chunks are cut at readings.
const replayMarkEvery = 256

// replayMark is one such reading, taken after `steps` steps.
type replayMark struct {
	cpuReading
	steps     int
	completed int64
}

// replayChunksPerTrace is how many chunks one trace's replay is cut into.
const replayChunksPerTrace = maxChunks / 2

// replayChunks cuts one replay at its marks into chunks of equal step counts.
// They carry no latencies: step times differ from one stretch of a trace to
// the next, so the latency metrics are those of whole repeats.
func replayChunks(marks []replayMark) []chunk {
	n := len(marks) - 1
	chunks := make([]chunk, min(replayChunksPerTrace, n))
	for k := range chunks {
		lo, hi := marks[k*n/len(chunks)], marks[(k+1)*n/len(chunks)]
		chunks[k] = chunk{
			Seconds: hi.at.Sub(lo.at).Seconds(), CPUSeconds: hi.cpu - lo.cpu,
			Jobs: int(hi.completed - lo.completed), Ops: hi.steps - lo.steps,
		}
	}
	return chunks
}

// replayOne replays one trace exactly as sched.Scheduler.Run does — submit in
// arrival order, step the engine dry — but times every step, which is the
// workload's "write": one scheduling pass over the events of one instant.
func replayOne(a alloc.Allocator, tr *trace.Trace) (res *sched.Result, host time.Duration, stepMs []float64, chunks []chunk, err error) {
	t0 := time.Now()
	marks := []replayMark{{cpuReading: cpuReading{t0, selfCPUSeconds()}}}
	eng, err := sched.New(a, scenario.None{}).Engine()
	if err != nil {
		return nil, 0, nil, nil, err
	}
	jobs := append([]trace.Job(nil), tr.Jobs...)
	sort.SliceStable(jobs, func(i, j int) bool {
		if jobs[i].Arrival != jobs[j].Arrival {
			return jobs[i].Arrival < jobs[j].Arrival
		}
		return jobs[i].ID < jobs[j].ID
	})
	for _, j := range jobs {
		if err := eng.Submit(j); err != nil {
			return nil, 0, nil, nil, err
		}
	}
	stepMs = make([]float64, 0, 2*len(jobs))
	for {
		s0 := time.Now()
		_, ok := eng.Step()
		if !ok {
			break
		}
		stepMs = append(stepMs, float64(time.Since(s0))/1e6)
		if len(stepMs)%replayMarkEvery == 0 {
			marks = append(marks, replayMark{cpuReading{time.Now(), selfCPUSeconds()}, len(stepMs), eng.Counts().Completed})
		}
	}
	res, err = sched.ResultFrom(eng, tr.Name)
	host = time.Since(t0)
	if last := marks[len(marks)-1]; last.steps < len(stepMs) || len(marks) == 1 {
		marks = append(marks, replayMark{cpuReading{t0.Add(host), selfCPUSeconds()}, len(stepMs), eng.Counts().Completed})
	}
	return res, host, stepMs, replayChunks(marks), err
}

// readRounds is how many times the evaluation report is read back.
const readRounds = 1000

// readSink keeps the compiler from discarding the read queries.
var readSink float64

// readResults is the workload's "read": the evaluation report a user of the
// simulator reads from the finished runs — utilization, mean turnaround and
// the instantaneous-utilization histogram of every trace — timed as one read.
func readResults(results []*sched.Result) (readMs []float64) {
	readMs = make([]float64, readRounds)
	for i := range readMs {
		t0 := time.Now()
		for _, res := range results {
			readSink += metrics.Utilization(res) + metrics.MeanTurnaround(res, 1) +
				float64(len(metrics.InstHistogram(res)))
		}
		readMs[i] = float64(time.Since(t0)) / 1e6
	}
	return readMs
}

// runReplay is one repeat of replay-sim in this process. With a recorder it
// is the traced run: the allocator is decorated and each trace is one
// sched.run span.
func runReplay(seed int64, scale float64, rec *recorder) (*repeat, error) {
	r := &repeat{Metrics: map[string]float64{}, Ops: map[string]int{}}
	m := r.Metrics

	t0 := time.Now()
	traces := replayTraces(seed, scale)
	allocs := make([]alloc.Allocator, len(traces))
	for i, tr := range traces {
		tree, err := topology.New(tr.SimRadix)
		if err != nil {
			return nil, err
		}
		allocs[i] = core.NewAllocator(tree)
		if rec != nil {
			if allocs[i], err = decorate(allocs[i], rec); err != nil {
				return nil, err
			}
		}
	}
	m["setup_s"] = time.Since(t0).Seconds()

	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var cpu float64
	var host time.Duration
	var steps, reads []float64
	var results []*sched.Result
	jobs, completed, allocCalls := 0, 0, 0
	var util float64
	for i, tr := range traces {
		cpu0 := selfCPUSeconds()
		id := rec.enter(spSchedRun, i)
		res, h, stepMs, chunks, err := replayOne(allocs[i], tr)
		rec.leave(id)
		cpu += selfCPUSeconds() - cpu0
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", tr.Name, err)
		}
		host += h
		r.Chunks = append(r.Chunks, chunks...)
		steps = append(steps, stepMs...)
		jobs += len(tr.Jobs)
		completed += len(res.Records)
		allocCalls += res.AllocCalls
		u := metrics.Utilization(res)
		util += u / float64(len(traces))
		r.Ops["jobs."+tr.Name] = len(tr.Jobs)
		m["sched.host_s."+tr.Name] = h.Seconds()
		m["sched.us_per_job."+tr.Name] = float64(h.Microseconds()) / float64(len(tr.Jobs))
		m["sched.util_pct."+tr.Name] = 100 * u
		m["sched.makespan_s."+tr.Name] = metrics.Makespan(res)
		m["core.sched_time_us_per_job."+tr.Name] = 1e6 * metrics.AvgSchedTime(res)
		results = append(results, res)
	}
	if rec == nil {
		reads = readResults(results)
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)

	r.Samples = map[string][]float64{"write": steps, "read": reads}
	write, read := summarize("write", steps), summarize("read", reads)
	within := sort.SearchFloat64s(steps, float64(sloLimit)/1e6+1e-9) // summarize sorted steps
	r.Attempted, r.Failed = jobs, jobs-completed
	if completed != jobs {
		r.problemf("%d of %d jobs completed", completed, jobs)
	}

	m["jobs_per_s"] = float64(completed) / host.Seconds()
	m["ops_per_s"] = float64(len(steps)) / host.Seconds()
	latencyMetrics(m, write, read)
	m["engine.step_us_per_event"] = float64(host.Microseconds()) / float64(len(steps))
	m["slo_ok_frac"] = ratio(float64(within), float64(len(steps)))
	m["client.failed_frac"] = ratio(float64(r.Failed), float64(r.Attempted))
	m["ok_frac"] = 1 - m["client.failed_frac"]
	m["cpu_us_per_op"] = cpu * 1e6 / float64(jobs)
	var err error
	if m["peak_rss_mb"], err = procPeakRSSMB(os.Getpid()); err != nil {
		return nil, err
	}
	m["utilization_pct"] = 100 * util

	m["client.max_ms"] = max(write.Max, read.Max)
	m["engine.alloc_calls_per_job"] = ratio(float64(allocCalls), float64(jobs))
	m["engine.started"], m["engine.completed"] = float64(completed), float64(completed)
	m["runtime.gc_cpu_frac"] = ms1.GCCPUFraction
	m["runtime.num_gc"] = float64(ms1.NumGC - ms0.NumGC)
	m["runtime.mallocs_per_job"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(jobs)
	m["runtime.alloc_bytes_per_job"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(jobs)
	m["runtime.heap_alloc_mb_end"] = float64(ms1.HeapAlloc) / (1 << 20)
	m["runtime.rss_bytes_per_job"] = m["peak_rss_mb"] * (1 << 20) / float64(jobs)
	return r, nil
}
