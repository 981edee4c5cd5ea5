package main

// The metric registry — BENCHMARK.json lists exactly these names, units and
// directions (TestBenchmarkJSONMatchesRegistry) — and the small statistics
// the harness needs on top of repro/internal/stats.

import (
	"sort"
	"time"

	"repro/internal/stats"
)

// metricDef describes one reported metric. bound is set for end-to-end
// metrics only: the share of the parent's median by which a later change may
// worsen the metric before it counts as a regression.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics a user of the system sees; every workload reports
// every one. README.md says what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"write_p50_ms", "ms", "lower", 0.25},
	{"write_tail_ms", "ms", "lower", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"read_tail_ms", "ms", "lower", 0.25},
	{"slo_ok_frac", "frac", "higher", 0.03},
	{"ok_frac", "frac", "higher", 0.001},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"utilization_pct", "%", "higher", 0.05},
}

// perLayer are the single-layer metrics, prefixed with the module they
// measure. A metric that does not exist on a workload reads 0 there.
var perLayer = []metricDef{
	{name: "server.submit_handler_us_per_req", unit: "us", better: "lower"},
	{name: "server.read_handler_us_per_req", unit: "us", better: "lower"},
	{name: "server.self_us_per_job", unit: "us", better: "lower"},
	{name: "server.resp_bytes_per_req", unit: "bytes", better: "lower"},
	{name: "server.http_non2xx", unit: "count", better: "lower"},

	{name: "ingest.accepted", unit: "count", better: "higher"},
	{name: "ingest.rejected", unit: "count", better: "lower"},
	{name: "ingest.shed_frac", unit: "frac", better: "lower"},
	{name: "ingest.queue_wait_us_mean", unit: "us", better: "lower"},
	{name: "ingest.queue_wait_us_p99", unit: "us", better: "lower"},
	{name: "ingest.apply_us_per_op", unit: "us", better: "lower"},

	{name: "engine.busy_us_per_op", unit: "us", better: "lower"},
	{name: "engine.self_us_per_op", unit: "us", better: "lower"},
	{name: "engine.step_us_per_event", unit: "us", better: "lower"},
	{name: "engine.background_us_per_job", unit: "us", better: "lower"},
	{name: "engine.feas_hit_ratio", unit: "frac", better: "higher"},
	{name: "engine.alloc_calls_per_job", unit: "count", better: "lower"},
	{name: "engine.started", unit: "count", better: "higher"},
	{name: "engine.completed", unit: "count", better: "higher"},
	{name: "engine.cancelled", unit: "count", better: "higher"},

	{name: "core.allocate_calls", unit: "count", better: "lower"},
	{name: "core.allocate_us_per_call", unit: "us", better: "lower"},
	{name: "core.allocate_hit_ratio", unit: "frac", better: "higher"},
	{name: "core.release_us_per_call", unit: "us", better: "lower"},
	{name: "core.clone_calls", unit: "count", better: "lower"},
	{name: "core.clone_us_per_call", unit: "us", better: "lower"},
	{name: "core.txn_count", unit: "count", better: "lower"},
	{name: "core.us_per_op", unit: "us", better: "lower"},
	{name: "core.sched_time_us_per_job.synth28", unit: "us", better: "lower"},
	{name: "core.sched_time_us_per_job.octcab", unit: "us", better: "lower"},

	{name: "snapshot.publishes", unit: "count", better: "lower"},
	{name: "snapshot.publish_us", unit: "us", better: "lower"},
	{name: "snapshot.publish_us_per_op", unit: "us", better: "lower"},
	{name: "snapshot.read_age_ms_p50", unit: "ms", better: "lower"},
	{name: "snapshot.read_age_ms_p99", unit: "ms", better: "lower"},
	{name: "snapshot.merge_us", unit: "us", better: "lower"},

	{name: "shard.cross_attempts", unit: "count", better: "lower"},
	{name: "shard.cross_placed", unit: "count", better: "higher"},
	{name: "shard.cross_conflicts", unit: "count", better: "lower"},
	{name: "shard.cross_infeasible", unit: "count", better: "lower"},
	{name: "shard.cross_parks", unit: "count", better: "lower"},
	{name: "shard.place_ratio", unit: "frac", better: "higher"},
	{name: "shard.wide_submit_ms_p50", unit: "ms", better: "lower"},
	{name: "shard.wide_drain_s", unit: "s", better: "lower"},

	{name: "sched.host_s.synth28", unit: "s", better: "lower"},
	{name: "sched.host_s.octcab", unit: "s", better: "lower"},
	{name: "sched.us_per_job.synth28", unit: "us", better: "lower"},
	{name: "sched.us_per_job.octcab", unit: "us", better: "lower"},
	{name: "sched.util_pct.synth28", unit: "%", better: "higher"},
	{name: "sched.util_pct.octcab", unit: "%", better: "higher"},
	{name: "sched.makespan_s.synth28", unit: "s", better: "lower"},
	{name: "sched.makespan_s.octcab", unit: "s", better: "lower"},

	{name: "runtime.gc_cpu_frac", unit: "frac", better: "lower"},
	{name: "runtime.num_gc", unit: "count", better: "lower"},
	{name: "runtime.mallocs_per_job", unit: "count", better: "lower"},
	{name: "runtime.alloc_bytes_per_job", unit: "bytes", better: "lower"},
	{name: "runtime.heap_alloc_mb_end", unit: "MB", better: "lower"},
	{name: "runtime.rss_bytes_per_job", unit: "bytes", better: "lower"},

	{name: "client.gen_lag_ms_p50", unit: "ms", better: "lower"},
	{name: "client.gen_lag_ms_p99", unit: "ms", better: "lower"},
	{name: "client.cpu_s", unit: "s", better: "lower"},
	{name: "client.open_p50_ms", unit: "ms", better: "lower"},
	{name: "client.open_p99_ms", unit: "ms", better: "lower"},
	{name: "client.max_ms", unit: "ms", better: "lower"},
	{name: "client.failed_frac", unit: "frac", better: "lower"},
	{name: "client.write_p99_ms", unit: "ms", better: "lower"},
	{name: "client.read_p99_ms", unit: "ms", better: "lower"},
	{name: "net.us_per_req", unit: "us", better: "lower"},

	{name: "trace.overhead_frac", unit: "frac", better: "lower"},
	{name: "trace.l2_over_l1", unit: "frac", better: "higher"},
}

// sloLimit is the latency limit behind slo_ok_frac: an op answered
// correctly within this long of its due (open loop) or send (closed loop)
// time meets it; a failed or refused op misses it. On one CPU the generator
// itself wakes up to 15 ms late at p99 while the daemon runs, so a limit under
// that would measure the kernel's time slices.
const sloLimit = 25 * time.Millisecond

// tailShare is the share of requests behind the *_tail_ms metrics: the mean
// latency of the slowest 5 % of a chunk. A p99 of these workloads sits on the knee
// between ordinary requests and the 1–3 % that meet a GC cycle or lose the
// CPU, and moves by a third from run to run; the mean beyond p95 takes in the
// same requests, and the stalls beyond them, and is steady.
const tailShare = 0.05

// chunk is what one repeat measured over one chunk of the closed-loop phase.
// Every repeat of a run executes the same ops, cut at the same places, so
// chunk k of one repeat did the work chunk k of another did.
type chunk struct {
	Seconds    float64 `json:"s"`
	CPUSeconds float64 `json:"cpu_s"` // of the measured process
	Jobs       int     `json:"jobs"`  // accepted (replay-sim: completed)
	Ops        int     `json:"ops"`   // answered correctly (replay-sim: engine steps)
	// Median and tail latency of the chunk's writes and reads, in ms; 0 when
	// the chunk has too few of them.
	WriteP50  float64 `json:"write_p50_ms"`
	WriteTail float64 `json:"write_tail_ms"`
	ReadP50   float64 `json:"read_p50_ms"`
	ReadTail  float64 `json:"read_tail_ms"`
}

// minP50Samples and minTailSamples are the fewest latencies a chunk's median
// and its tail (then the mean of 20) are taken from. Where the chunks of a
// workload hold fewer, the metric is that of the whole repeat.
const (
	minP50Samples  = 100
	minTailSamples = 400
)

// latencies fills in the median and tail of the chunk's write and read
// latencies. It sorts both.
func (c *chunk) latencies(writes, reads []float64) {
	w, r := summarize("write", writes), summarize("read", reads)
	if w.N >= minP50Samples {
		c.WriteP50 = w.P50
	}
	if w.N >= minTailSamples {
		c.WriteTail = w.Tail
	}
	if r.N >= minP50Samples {
		c.ReadP50 = r.P50
	}
	if r.N >= minTailSamples {
		c.ReadTail = r.Tail
	}
}

// secondSmallest is the second smallest of xs (the only one, of one): what a
// time counts as when the host may have stretched some of its measurements.
func secondSmallest(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[min(1, len(s)-1)]
}

// quiet is the value a run gives chunk k: the second smallest of what the
// repeats measured for it. The reference
// host is shared: for seconds at a time a neighbour makes everything on it a
// third slower, and a run's total carries every such burst it met. A burst
// seldom meets the same chunk in five repeats out of six, so the second
// smallest is the chunk's cost on a quiet host; the smallest would also pick,
// chunk by chunk, the repeat in which a GC cycle happened to fall elsewhere.
func quiet(reps []*repeat, k int, get func(*chunk) float64) (float64, bool) {
	var xs []float64
	for _, r := range reps {
		if v := get(&r.Chunks[k]); v > 0 {
			xs = append(xs, v)
		}
	}
	if len(xs) == 0 {
		return 0, false
	}
	return secondSmallest(xs), true
}

// chunked are the end-to-end metrics a run takes from the quiet values of
// its chunks and, where the chunks could not measure one, from the second
// smallest of the repeats' own values; every other metric but setup_s is the
// median over the repeats.
var chunked = []string{
	"jobs_per_s", "ops_per_s", "cpu_us_per_op",
	"write_p50_ms", "write_tail_ms", "read_p50_ms", "read_tail_ms",
}

// chunkedMetrics computes the chunked metrics of a run: throughput is the
// work of the chunks over the sum of their quiet durations, CPU per op the
// sum of their quiet CPU times over the work (jobs, or requests where perOp),
// a latency the mean over the chunks of its quiet value. fromChunk is 1 where
// the first chunk is warm-up. A metric no chunk could measure is left out.
func chunkedMetrics(reps []*repeat, perOp bool, fromChunk int) map[string]float64 {
	n := len(reps[0].Chunks)
	for _, r := range reps {
		if len(r.Chunks) != n {
			return nil
		}
	}
	if n < 4 {
		fromChunk = 0
	}
	var secs, cpu float64
	var jobs, ops int
	latency := map[string]func(*chunk) float64{
		"write_p50_ms":  func(c *chunk) float64 { return c.WriteP50 },
		"write_tail_ms": func(c *chunk) float64 { return c.WriteTail },
		"read_p50_ms":   func(c *chunk) float64 { return c.ReadP50 },
		"read_tail_ms":  func(c *chunk) float64 { return c.ReadTail },
	}
	sum, count := map[string]float64{}, map[string]float64{}
	for k := fromChunk; k < n; k++ {
		s, ok := quiet(reps, k, func(c *chunk) float64 { return c.Seconds })
		if !ok {
			return nil
		}
		c, _ := quiet(reps, k, func(c *chunk) float64 { return c.CPUSeconds })
		secs, cpu = secs+s, cpu+c
		jobs, ops = jobs+reps[0].Chunks[k].Jobs, ops+reps[0].Chunks[k].Ops
		for name, get := range latency {
			if v, ok := quiet(reps, k, get); ok {
				sum[name] += v
				count[name]++
			}
		}
	}
	m := map[string]float64{"jobs_per_s": float64(jobs) / secs, "ops_per_s": float64(ops) / secs}
	units := float64(jobs)
	if perOp {
		units = float64(ops)
	}
	if cpu > 0 && units > 0 {
		m["cpu_us_per_op"] = cpu * 1e6 / units
	}
	for name := range sum {
		m[name] = sum[name] / count[name]
	}
	return m
}

// latencyLine is one printed latency distribution, in ms.
type latencyLine struct {
	Name                           string
	N                              int
	P50, P90, P99, P999, Max, Tail float64
}

// latencyNames are the distributions a repeat samples, in printing order:
// writes and reads (the latency metrics), then the diagnostics.
var latencyNames = []string{"write", "read", "wide_submit", "open_from_due", "gen_lag", "read_age"}

// latencyMetrics fills in the metrics taken from the write and read
// distributions.
func latencyMetrics(m map[string]float64, write, read latencyLine) {
	m["write_p50_ms"], m["write_tail_ms"], m["client.write_p99_ms"] = write.P50, write.Tail, write.P99
	m["read_p50_ms"], m["read_tail_ms"], m["client.read_p99_ms"] = read.P50, read.Tail, read.P99
}

// summarize sorts xs in place and returns its latency line.
func summarize(name string, xs []float64) latencyLine {
	sort.Float64s(xs)
	l := latencyLine{Name: name, N: len(xs)}
	if len(xs) > 0 {
		l.P50 = stats.Percentile(xs, 50)
		l.P90 = stats.Percentile(xs, 90)
		l.P99 = stats.Percentile(xs, 99)
		l.P999 = stats.Percentile(xs, 99.9)
		l.Max = xs[len(xs)-1]
		slowest := xs[len(xs)-max(1, int(tailShare*float64(len(xs)))):]
		for _, x := range slowest {
			l.Tail += x / float64(len(slowest))
		}
	}
	return l
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 { return stats.Quantiles(xs, 0.5)[0] }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
