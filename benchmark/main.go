// Command benchmark is the repository's end-to-end benchmark: four named
// workloads against a jigsawd it builds and starts itself (and, for
// replay-sim, the batch simulator in a fresh process), end-to-end metrics
// from untraced runs, and a per-layer budget from a traced layer replay.
// README.md in this directory is the manual.
//
//	go run ./benchmark -seed 1                  all four workloads, full size
//	go run ./benchmark -seed 1 -trace 1         the traced layer replay
//	go run ./benchmark -workload front-door -seed 7 -seconds 20 -trace 0
//
// With -workload the last line of standard output is the one-line JSON
// result BENCHMARK.json's contract asks for.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// repeats is how many fresh processes each workload is measured against. A
// time-derived metric is taken chunk by chunk across them (chunkedMetrics);
// every other metric is the median over them.
const repeats = 6

// pinnedEnv holds the CPU the harness confined itself to, as "1 of 2".
const pinnedEnv = "JIGSAW_BENCH_CPU"

// quickScale is the -quick size: 1/50 of the full op counts.
const quickScale = 1.0 / 50

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run() (int, error) {
	var (
		name    = flag.String("workload", "", "run one workload and end with the one-line JSON result (default: all four)")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", 0, "run length: op counts are fixed, scaled so a workload's untraced repeats take about this long on the reference host (0: full size)")
		traced  = flag.Int("trace", 0, "1: one untraced repeat plus the traced layer replay, reporting the per-layer metrics")
		quick   = flag.Bool("quick", false, "1/50 size against an in-process server: a smoke run, not a measurement")
		child   = flag.Bool("replay-child", false, "internal: run one replay-sim repeat in this process and print it as JSON")
	)
	flag.Parse()
	// A measurement runs on one CPU (see pinOneCPU); the smoke run does not care.
	if !*quick {
		if err := pinOneCPU(); err != nil {
			return 1, err
		}
	}
	// scale is the share of its full-size op counts a workload runs.
	scale := func(w *workload) float64 {
		switch {
		case *quick:
			return quickScale
		case *seconds > 0:
			return *seconds / w.fullSeconds
		}
		return 1
	}
	if *child {
		r, err := runReplay(*seed, scale(workloadByName("replay-sim")), nil)
		if err != nil {
			return 1, err
		}
		return 0, json.NewEncoder(os.Stdout).Encode(r)
	}
	selected := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			return 2, fmt.Errorf("unknown workload %q", *name)
		}
		selected = []workload{*w}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	root, err := moduleRoot()
	if err != nil {
		return 1, err
	}
	outDir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return 1, err
	}
	e := &env{quick: *quick}
	if !*quick {
		if e.daemonBin, err = buildDaemon(ctx); err != nil {
			return 1, err
		}
	}

	report := report{Meta: newMeta(root, *seed, *seconds, *traced == 1, *quick)}
	for i := range selected {
		o, err := measure(ctx, e, &selected[i], *seed, scale(&selected[i]), *traced == 1, outDir)
		if err != nil {
			return 1, err
		}
		o.print(os.Stdout)
		report.Workloads = append(report.Workloads, o)
	}
	report.Meta.WallSeconds = time.Since(start).Seconds()
	report.Meta.print(os.Stdout)
	if err := report.write(filepath.Join(outDir, "results.json")); err != nil {
		return 1, err
	}

	code := 0
	for _, o := range report.Workloads {
		if !o.Correct {
			code = 1
			fmt.Fprintf(os.Stderr, "benchmark: %s: correctness check failed: %s\n", o.Workload, strings.Join(o.Problems, "; "))
		}
	}
	if *name != "" {
		fmt.Println(report.Workloads[0].contractLine(*traced == 1))
	}
	return code, nil
}

// meta says where and how the numbers were taken, so runs from different
// hosts are never compared silently.
type meta struct {
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	PinnedCPU   string  `json:"pinned_cpu"`
	GoVersion   string  `json:"go_version"`
	CPUModel    string  `json:"cpu_model"`
	Kernel      string  `json:"kernel"`
	Commit      string  `json:"commit"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Repeats     int     `json:"repeats"`
	Connections int     `json:"connections"`
	Traced      bool    `json:"traced"`
	Quick       bool    `json:"quick"`
	WallSeconds float64 `json:"wall_s"`
}

func newMeta(root string, seed int64, seconds float64, traced, quick bool) meta {
	m := meta{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), PinnedCPU: os.Getenv(pinnedEnv), GoVersion: runtime.Version(),
		CPUModel: "unknown", Kernel: "unknown", Commit: "unknown",
		Seed: seed, Seconds: seconds, Repeats: repeats, Connections: connections, Traced: traced, Quick: quick,
	}
	if traced {
		m.Repeats = 1
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(b))
	}
	// Outside a git checkout (the benchmark driver's copy) the commit stays
	// unknown.
	git := exec.Command("git", "rev-parse", "HEAD")
	git.Dir = root
	if b, err := git.Output(); err == nil {
		m.Commit = strings.TrimSpace(string(b))
	}
	return m
}

func (m meta) print(w *os.File) {
	fmt.Fprintf(w, "_meta: nproc=%d GOMAXPROCS=%d pinned_cpu=%q %s cpu=%q kernel=%s commit=%s seed=%d seconds=%g repeats=%d connections=%d wall=%.1fs\n",
		m.NProc, m.GOMAXPROCS, m.PinnedCPU, m.GoVersion, m.CPUModel, m.Kernel, m.Commit, m.Seed, m.Seconds, m.Repeats, m.Connections, m.WallSeconds)
}

// metricValue is one reported metric: the value of the run (measure says how
// it is taken from the repeats), and the value each repeat measured.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Bound   float64   `json:"bound,omitempty"`
	Repeats []float64 `json:"repeats"`
}

// outcome is everything one workload reported.
type outcome struct {
	Workload string `json:"workload"`
	Why      string `json:"why"`
	Chunks   int    `json:"chunks"` // per repeat
	// ChunkSeconds[k] is how long chunk k took in each repeat.
	ChunkSeconds [][]float64            `json:"chunk_seconds"`
	Correct      bool                   `json:"correct"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	Problems     []string               `json:"problems,omitempty"`
	Ops          map[string]int         `json:"ops"`
	StreamSHA    string                 `json:"stream_sha256,omitempty"`
	EndToEnd     map[string]metricValue `json:"end_to_end"`
	PerLayer     map[string]metricValue `json:"per_layer"`
	Latency      []latencyLine          `json:"latency_ms"`
	Layers       []layerRow             `json:"layers,omitempty"`
}

type report struct {
	Meta      meta      `json:"_meta"`
	Workloads []outcome `json:"workloads"`
}

func (r report) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runRepeat measures w once against a fresh process.
func runRepeat(ctx context.Context, e *env, w *workload, seed int64, scale float64) (*repeat, error) {
	if w.http() {
		return runHTTP(ctx, e, w, seed, scale)
	}
	if e.quick {
		return runReplay(seed, scale, nil)
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, "-replay-child", "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(scale*w.fullSeconds))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = childAttr()
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("replay-sim child: %w", err)
	}
	r := &repeat{}
	if err := json.Unmarshal(out, r); err != nil {
		return nil, fmt.Errorf("replay-sim child: %w", err)
	}
	return r, nil
}

// exactAcrossRepeats are the simulated statistics of replay-sim, which
// depend on the inputs alone and must repeat bit for bit.
var exactAcrossRepeats = []string{
	"utilization_pct", "sched.util_pct.synth28", "sched.util_pct.octcab",
	"sched.makespan_s.synth28", "sched.makespan_s.octcab", "engine.alloc_calls_per_job",
}

// measure runs the repeats of one workload (one, plus the layer replay, when
// traced) and folds them into an outcome.
func measure(ctx context.Context, e *env, w *workload, seed int64, scale float64, traced bool, outDir string) (outcome, error) {
	o := outcome{Workload: w.name, Why: w.why, EndToEnd: map[string]metricValue{}, PerLayer: map[string]metricValue{}}
	n := repeats
	if traced {
		n = 1
	}
	var reps []*repeat
	for i := 0; i < n; i++ {
		r, err := runRepeat(ctx, e, w, seed, scale)
		if err != nil {
			return o, fmt.Errorf("%s repeat %d: %w", w.name, i+1, err)
		}
		reps = append(reps, r)
		o.Attempted += r.Attempted
		o.Failed += r.Failed
		for _, p := range r.Problems {
			o.Problems = append(o.Problems, fmt.Sprintf("repeat %d: %s", i+1, p))
		}
		if r.StreamSHA != reps[0].StreamSHA {
			o.Problems = append(o.Problems, fmt.Sprintf("repeat %d: op stream differs from repeat 1", i+1))
		}
	}
	if traced {
		rows, err := layerReplay(w, seed, scale, outDir, reps[0])
		if err != nil {
			return o, err
		}
		o.Layers = rows
	}
	if !w.http() {
		for _, name := range exactAcrossRepeats {
			for i, r := range reps {
				if r.Metrics[name] != reps[0].Metrics[name] {
					o.Problems = append(o.Problems, fmt.Sprintf("repeat %d: %s = %v, repeat 1 had %v", i+1, name, r.Metrics[name], reps[0].Metrics[name]))
				}
			}
		}
	}
	o.Ops, o.StreamSHA = reps[0].Ops, reps[0].StreamSHA
	o.Correct = o.Failed == 0 && len(o.Problems) == 0

	fold := func(defs []metricDef, into map[string]metricValue) {
		for _, d := range defs {
			v := metricValue{Unit: d.unit, Better: d.better, Bound: d.bound}
			for _, r := range reps {
				v.Repeats = append(v.Repeats, r.Metrics[d.name])
			}
			v.Value = median(v.Repeats)
			into[d.name] = v
		}
	}
	fold(endToEnd, o.EndToEnd)
	fold(perLayer, o.PerLayer)
	// A time the host disturbed is only ever longer, so set-up counts as the
	// second smallest of the repeats', and so does a time-derived metric the
	// chunks could not measure; the others come from the chunks of every repeat.
	fromChunks := chunkedMetrics(reps, w.http() && !w.virtual, w.warmupChunks())
	for _, name := range append([]string{"setup_s"}, chunked...) {
		mv := o.EndToEnd[name]
		switch v, ok := fromChunks[name]; {
		case ok:
			mv.Value = v
		case mv.Better == "lower":
			mv.Value = secondSmallest(mv.Repeats)
		}
		o.EndToEnd[name] = mv
	}
	o.Chunks = len(reps[0].Chunks)
	for k := 0; k < o.Chunks; k++ {
		var secs []float64
		for _, r := range reps {
			if k < len(r.Chunks) {
				secs = append(secs, r.Chunks[k].Seconds)
			}
		}
		o.ChunkSeconds = append(o.ChunkSeconds, secs)
	}
	// Latency lines and the p99s come from the samples of every repeat pooled.
	line := map[string]latencyLine{}
	for _, name := range latencyNames {
		var pooled []float64
		for _, r := range reps {
			pooled = append(pooled, r.Samples[name]...)
		}
		if line[name] = summarize(name, pooled); len(pooled) > 0 {
			o.Latency = append(o.Latency, line[name])
		}
	}
	for _, r := range reps {
		r.Samples = nil
	}
	for name, v := range map[string]float64{"client.write_p99_ms": line["write"].P99, "client.read_p99_ms": line["read"].P99} {
		mv := o.PerLayer[name]
		mv.Value = v
		o.PerLayer[name] = mv
	}
	return o, nil
}

// print writes every metric by name with its unit, the run's value and the
// repeats' own.
func (o outcome) print(w *os.File) {
	fmt.Fprintf(w, "\n== %s: correct=%v attempted=%d failed=%d chunks=%d ops=%v\n", o.Workload, o.Correct, o.Attempted, o.Failed, o.Chunks, o.Ops)
	for _, p := range o.Problems {
		fmt.Fprintf(w, "   PROBLEM %s\n", p)
	}
	section := func(title string, defs []metricDef, vals map[string]metricValue) {
		fmt.Fprintf(w, "-- %s (median of the n repeats; setup_s %s: from their chunks, else the second smallest)\n", title, strings.Join(chunked, " "))
		for _, d := range defs {
			v := vals[d.name]
			fmt.Fprintf(w, "%-40s %16.6g %-6s n=%d %v\n", d.name, v.Value, v.Unit, len(v.Repeats), v.Repeats)
		}
	}
	section("end to end", endToEnd, o.EndToEnd)
	fmt.Fprintf(w, "-- latency, ms (diagnostics: correct answers only)\n")
	for _, l := range o.Latency {
		fmt.Fprintf(w, "%-40s n=%-7d p50=%-9.4g p90=%-9.4g p99=%-9.4g p99.9=%-9.4g max=%-9.4g slowest5%%=%.4g\n", l.Name, l.N, l.P50, l.P90, l.P99, l.P999, l.Max, l.Tail)
	}
	fmt.Fprintf(w, "-- chunks: seconds in each repeat (the same ops every time; the second smallest counts)\n")
	for k, secs := range o.ChunkSeconds {
		fmt.Fprintf(w, "chunk %-2d %.4f\n", k, secs)
	}
	section("per layer", perLayer, o.PerLayer)
	if len(o.Layers) > 0 {
		fmt.Fprintf(w, "-- traced layer replay (self = span minus the part its children cover)\n")
		fmt.Fprintf(w, "%-6s %-20s %10s %12s %12s %14s\n", "level", "span", "count", "total_ms", "self_ms", "self_us/op")
		rows := append([]layerRow(nil), o.Layers...)
		sort.SliceStable(rows, func(i, j int) bool {
			if rows[i].Level != rows[j].Level {
				return rows[i].Level < rows[j].Level
			}
			return rows[i].SelfMs > rows[j].SelfMs
		})
		for _, r := range rows {
			fmt.Fprintf(w, "%-6s %-20s %10d %12.3f %12.3f %14.3f\n", r.Level, r.Span, r.Count, r.TotalMs, r.SelfMs, r.SelfUsPerOp)
		}
	}
}

// contractLine is the one-line JSON result: every end-to-end metric of an
// untraced run, every per-layer metric of a traced one.
func (o outcome) contractLine(traced bool) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := o.EndToEnd
	if traced {
		vals = o.PerLayer
	}
	metrics := map[string]mv{}
	for name, v := range vals {
		metrics[name] = mv{v.Value, v.Unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{o.Correct, o.Attempted, o.Failed, metrics})
	return string(b)
}
