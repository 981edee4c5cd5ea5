// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6): average system utilization (Figure 6),
// instantaneous-utilization frequencies (Table 2), normalized job turnaround
// times (Figure 7), normalized makespans (Figure 8), and average scheduling
// time per job (Table 3), plus the trace-characteristics table (Table 1).
//
// Runs are deterministic except for the wall-clock scheduling times of
// Table 3. The Scale knob shrinks trace job counts for quick runs; 1.0
// reproduces the paper's counts (and the paper's multi-hour runtimes).
//
// Independent simulation cells — one (trace, scheme, scenario) run each —
// execute on a bounded worker pool sized by Config.Workers (default: one
// worker per CPU). Results are collected into index-addressed slices and
// assembled in cell order, so every table and CSV is byte-identical
// regardless of worker count.
package experiments

import (
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/alloc"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/failtrace"
	"repro/internal/jigsaws"
	"repro/internal/laas"
	"repro/internal/lcs"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/ta"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Schemes, in the paper's legend order (Figure 6).
var Schemes = []string{"Baseline", "LC+S", "Jigsaw", "LaaS", "TA"}

// Registered is every scheme NewAllocator builds: Schemes plus Jigsaw+S, the
// link-sharing relaxation Section 5.2.3 notes can be combined with Jigsaw.
var Registered = append(slices.Clip(Schemes), "Jigsaw+S")

// IsolatingSchemes are the four compared against Baseline in Figures 7/8.
var IsolatingSchemes = []string{"TA", "LaaS", "Jigsaw", "LC+S"}

// Config controls a harness run.
type Config struct {
	// Scale shrinks trace job counts; 1.0 reproduces the paper's counts.
	Scale float64
	// Out receives the report (defaults to os.Stdout).
	Out io.Writer
	// MeasureTime enables wall-clock scheduling-time measurement; only
	// Table 3 needs it.
	MeasureTime bool
	// Workers bounds how many simulation cells run concurrently; 0 or
	// negative means runtime.NumCPU(). Output is byte-identical for every
	// worker count, but Table 3's wall-clock timings are only faithful at
	// Workers=1 (concurrent cells contend for the CPU and inflate each
	// other's measurements).
	Workers int
	// FailEvents injects the same timed resource failures into every
	// simulation cell (cmd/experiments -fail-trace); empty reproduces the
	// paper's healthy-fabric runs bit for bit.
	FailEvents []failtrace.Event
	// FailPolicy picks what happens to running jobs hit by a failure.
	FailPolicy engine.FailurePolicy
	// Elastic enables the malleability paths for jobs that declare elastic
	// fields; the paper's rigid traces run bit-for-bit identically with it
	// on or off, so it only matters with FailPolicy shrink and a fail trace.
	Elastic bool
}

func (c Config) out() io.Writer {
	if c.Out == nil {
		return os.Stdout
	}
	return c.Out
}

func (c Config) scale() float64 {
	if c.Scale <= 0 {
		return 0.1
	}
	return c.Scale
}

// NewAllocator constructs a scheme's allocator for the tree; scheme is one of
// Registered. It is the one scheme registry: jigsaw.NewAllocator and
// cmd/jigsawd go through it.
func NewAllocator(scheme string, tree *topology.FatTree) (alloc.Allocator, error) {
	switch scheme {
	case "Baseline":
		return baseline.NewAllocator(tree), nil
	case "Jigsaw":
		return core.NewAllocator(tree), nil
	case "LaaS":
		return laas.NewAllocator(tree), nil
	case "TA":
		return ta.NewAllocator(tree), nil
	case "LC+S":
		return lcs.NewAllocator(tree), nil
	case "Jigsaw+S":
		return jigsaws.NewAllocator(tree), nil
	default:
		return nil, fmt.Errorf("unknown scheme %q (want one of %s)", scheme, strings.Join(Registered, ", "))
	}
}

// TreeFor returns the fat-tree a trace is simulated on (Section 5.4.3).
func TreeFor(tr *trace.Trace) (*topology.FatTree, error) {
	radix := tr.SimRadix
	if radix == 0 {
		// Traces without a preset radix (e.g. parsed SWF logs) get the
		// smallest paper cluster that fits their largest job.
		for _, r := range []int{16, 18, 22, 28} {
			t := topology.MustNew(r)
			if t.Nodes() >= tr.MaxSize() {
				radix = r
				break
			}
		}
		if radix == 0 {
			return nil, fmt.Errorf("experiments: trace %s has jobs too large for any paper cluster", tr.Name)
		}
	}
	return topology.New(radix)
}

// Run simulates one trace under one scheme and scenario on a healthy fabric.
func Run(tr *trace.Trace, scheme string, sc scenario.Scenario, measureTime bool) (*sched.Result, error) {
	return Config{}.run(tr, scheme, sc, measureTime)
}

// run simulates one cell, injecting the config's fail events if any.
func (c Config) run(tr *trace.Trace, scheme string, sc scenario.Scenario, measureTime bool) (*sched.Result, error) {
	tree, err := TreeFor(tr)
	if err != nil {
		return nil, err
	}
	a, err := NewAllocator(scheme, tree)
	if err != nil {
		return nil, err
	}
	s := sched.New(a, sc)
	s.MeasureAllocTime = measureTime
	s.FailEvents = c.FailEvents
	s.OnFailure = c.FailPolicy
	s.Elastic = c.Elastic
	return s.Run(tr)
}

// Table1 prints the trace-characteristics table.
func Table1(cfg Config) error {
	w := cfg.out()
	fmt.Fprintf(w, "Table 1: Characteristics of job queue traces (scale %.2f)\n", cfg.scale())
	fmt.Fprintf(w, "%-10s %8s %9s %9s %16s %8s\n", "Trace", "Sys.nodes", "Jobs", "Max job", "Run times (s)", "Arrivals")
	for _, tr := range trace.All(cfg.scale()) {
		lo, hi := tr.RuntimeRange()
		arr := "N"
		if tr.RealArrivals {
			arr = "Y"
		}
		fmt.Fprintf(w, "%-10s %8d  %9d %9d %7.0f-%-8.0f %8s\n",
			tr.Name, tr.SystemNodes, len(tr.Jobs), tr.MaxSize(), lo, hi, arr)
	}
	return nil
}

// Fig6Row is one trace's utilization under every scheme.
type Fig6Row struct {
	Trace string
	Util  map[string]float64 // scheme -> fraction
}

// Figure6Data computes average system utilization for every trace and
// scheme (Figure 6). Cells fan out across the worker pool.
func Figure6Data(cfg Config) ([]Fig6Row, error) {
	traces := trace.All(cfg.scale())
	utils := make([]float64, len(traces)*len(Schemes))
	err := cfg.forEachCell(len(utils), func(i int) error {
		tr, scheme := traces[i/len(Schemes)], Schemes[i%len(Schemes)]
		res, err := cfg.run(tr, scheme, scenario.None{}, false)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", tr.Name, scheme, err)
		}
		utils[i] = metrics.Utilization(res)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig6Row, len(traces))
	for ti, tr := range traces {
		rows[ti] = Fig6Row{Trace: tr.Name, Util: map[string]float64{}}
		for si, s := range Schemes {
			rows[ti].Util[s] = utils[ti*len(Schemes)+si]
		}
	}
	return rows, nil
}

// Figure6 prints the utilization table.
func Figure6(cfg Config) error {
	rows, err := Figure6Data(cfg)
	if err != nil {
		return err
	}
	w := cfg.out()
	fmt.Fprintf(w, "Figure 6: Average system utilization (%%), scale %.2f\n", cfg.scale())
	fmt.Fprintf(w, "%-10s", "Trace")
	for _, s := range Schemes {
		fmt.Fprintf(w, " %9s", s)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s", r.Trace)
		for _, s := range Schemes {
			fmt.Fprintf(w, " %9.1f", 100*r.Util[s])
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Table2Data computes the instantaneous-utilization frequency buckets on the
// Thunder trace for the three isolating schedulers the paper tabulates.
func Table2Data(cfg Config) (map[string][]int, error) {
	tr := trace.ThunderLike(cfg.scale())
	schemes := []string{"LaaS", "Jigsaw", "TA"}
	hists := make([][]int, len(schemes))
	err := cfg.forEachCell(len(schemes), func(i int) error {
		res, err := cfg.run(tr, schemes[i], scenario.None{}, false)
		if err != nil {
			return err
		}
		hists[i] = metrics.InstHistogram(res)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string][]int{}
	for i, scheme := range schemes {
		out[scheme] = hists[i]
	}
	return out, nil
}

// Table2 prints the instantaneous-utilization frequency table.
func Table2(cfg Config) error {
	data, err := Table2Data(cfg)
	if err != nil {
		return err
	}
	w := cfg.out()
	fmt.Fprintf(w, "Table 2: Frequency of instantaneous utilization ranges, Thunder (scale %.2f)\n", cfg.scale())
	fmt.Fprintf(w, "%-10s", "Approach")
	for _, l := range metrics.Table2Labels {
		fmt.Fprintf(w, " %8s", l)
	}
	fmt.Fprintln(w)
	for _, scheme := range []string{"LaaS", "Jigsaw", "TA"} {
		fmt.Fprintf(w, "%-10s", scheme)
		for _, c := range data[scheme] {
			fmt.Fprintf(w, " %8d", c)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig7Cell is a normalized turnaround pair (all jobs / large jobs).
type Fig7Cell struct {
	All, Large float64
}

// Fig7Data holds Figure 7 results for one trace: scenario -> scheme -> cell.
type Fig7Data struct {
	Trace string
	Cells map[string]map[string]Fig7Cell
}

// Figure7Data computes normalized average turnaround times for one trace
// under the six scenarios. Values are normalized to the Baseline run, which
// never receives speed-ups. The Baseline run is cell 0 of the fan-out;
// normalization happens after the pool drains, so scheme cells never wait
// on it.
func Figure7Data(cfg Config, tr *trace.Trace) (*Fig7Data, error) {
	type pair struct{ all, large float64 }
	scs := scenario.All()
	raw := make([]pair, 1+len(scs)*len(IsolatingSchemes))
	err := cfg.forEachCell(len(raw), func(i int) error {
		if i == 0 {
			base, err := cfg.run(tr, "Baseline", scenario.None{}, false)
			if err != nil {
				return err
			}
			raw[0] = pair{metrics.MeanTurnaround(base, 0), metrics.MeanTurnaround(base, 100)}
			return nil
		}
		sc := scs[(i-1)/len(IsolatingSchemes)]
		scheme := IsolatingSchemes[(i-1)%len(IsolatingSchemes)]
		res, err := cfg.run(tr, scheme, sc, false)
		if err != nil {
			return fmt.Errorf("%s/%s/%s: %w", tr.Name, scheme, sc.Name(), err)
		}
		raw[i] = pair{metrics.MeanTurnaround(res, 0), metrics.MeanTurnaround(res, 100)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	d := &Fig7Data{Trace: tr.Name, Cells: map[string]map[string]Fig7Cell{}}
	for si, sc := range scs {
		d.Cells[sc.Name()] = map[string]Fig7Cell{}
		for ki, scheme := range IsolatingSchemes {
			p := raw[1+si*len(IsolatingSchemes)+ki]
			d.Cells[sc.Name()][scheme] = Fig7Cell{
				All:   p.all / raw[0].all,
				Large: p.large / raw[0].large,
			}
		}
	}
	return d, nil
}

// Figure7 prints normalized turnaround tables for Aug-Cab and Oct-Cab.
func Figure7(cfg Config) error {
	w := cfg.out()
	for _, tr := range []*trace.Trace{trace.AugCab(cfg.scale()), trace.OctCab(cfg.scale())} {
		d, err := Figure7Data(cfg, tr)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Figure 7: Job turnaround times for %s normalized to Baseline (all jobs / jobs > 100 nodes), scale %.2f\n", tr.Name, cfg.scale())
		fmt.Fprintf(w, "%-9s", "Scenario")
		for _, s := range IsolatingSchemes {
			fmt.Fprintf(w, " %13s", s)
		}
		fmt.Fprintln(w)
		for _, sc := range scenario.All() {
			fmt.Fprintf(w, "%-9s", sc.Name())
			for _, s := range IsolatingSchemes {
				c := d.Cells[sc.Name()][s]
				fmt.Fprintf(w, "   %5.2f/%5.2f", c.All, c.Large)
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// Fig8Data holds Figure 8 results for one trace: scenario -> scheme ->
// normalized makespan.
type Fig8Data struct {
	Trace string
	Cells map[string]map[string]float64
}

// Figure8Data computes normalized makespans for one trace. Cell layout
// mirrors Figure7Data: Baseline first, then scenario-major scheme cells.
func Figure8Data(cfg Config, tr *trace.Trace) (*Fig8Data, error) {
	scs := scenario.All()
	raw := make([]float64, 1+len(scs)*len(IsolatingSchemes))
	err := cfg.forEachCell(len(raw), func(i int) error {
		if i == 0 {
			base, err := cfg.run(tr, "Baseline", scenario.None{}, false)
			if err != nil {
				return err
			}
			raw[0] = metrics.Makespan(base)
			return nil
		}
		sc := scs[(i-1)/len(IsolatingSchemes)]
		scheme := IsolatingSchemes[(i-1)%len(IsolatingSchemes)]
		res, err := cfg.run(tr, scheme, sc, false)
		if err != nil {
			return fmt.Errorf("%s/%s/%s: %w", tr.Name, scheme, sc.Name(), err)
		}
		raw[i] = metrics.Makespan(res)
		return nil
	})
	if err != nil {
		return nil, err
	}
	d := &Fig8Data{Trace: tr.Name, Cells: map[string]map[string]float64{}}
	for si, sc := range scs {
		d.Cells[sc.Name()] = map[string]float64{}
		for ki, scheme := range IsolatingSchemes {
			d.Cells[sc.Name()][scheme] = raw[1+si*len(IsolatingSchemes)+ki] / raw[0]
		}
	}
	return d, nil
}

// Figure8 prints normalized makespans for Thunder and Atlas.
func Figure8(cfg Config) error {
	w := cfg.out()
	for _, tr := range []*trace.Trace{trace.ThunderLike(cfg.scale()), trace.AtlasLike(cfg.scale())} {
		d, err := Figure8Data(cfg, tr)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Figure 8: Makespans for %s normalized to Baseline, scale %.2f\n", tr.Name, cfg.scale())
		fmt.Fprintf(w, "%-9s", "Scenario")
		for _, s := range IsolatingSchemes {
			fmt.Fprintf(w, " %8s", s)
		}
		fmt.Fprintln(w)
		for _, sc := range scenario.All() {
			fmt.Fprintf(w, "%-9s", sc.Name())
			for _, s := range IsolatingSchemes {
				fmt.Fprintf(w, " %8.2f", d.Cells[sc.Name()][s])
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// Table3Data computes average scheduling time per job (seconds) for the four
// representative experiments, smallest to largest cluster. Wall-clock
// measurement follows cfg.MeasureTime (the CLI sets it; determinism tests
// leave it off). Timings are only faithful at Workers=1 — parallel cells
// contend for the CPU.
func Table3Data(cfg Config) (map[string]map[string]float64, []string, error) {
	traces := []*trace.Trace{
		trace.Synth16(cfg.scale()), trace.SepCab(cfg.scale()),
		trace.ThunderLike(cfg.scale()), trace.Synth28(cfg.scale()),
	}
	names := make([]string, len(traces))
	for i, tr := range traces {
		names[i] = tr.Name
	}
	times := make([]float64, len(traces)*len(IsolatingSchemes))
	err := cfg.forEachCell(len(times), func(i int) error {
		tr := traces[i/len(IsolatingSchemes)]
		scheme := IsolatingSchemes[i%len(IsolatingSchemes)]
		res, err := cfg.run(tr, scheme, scenario.None{}, cfg.MeasureTime)
		if err != nil {
			return err
		}
		times[i] = metrics.AvgSchedTime(res)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	out := map[string]map[string]float64{}
	for i, t := range times {
		scheme := IsolatingSchemes[i%len(IsolatingSchemes)]
		if out[scheme] == nil {
			out[scheme] = map[string]float64{}
		}
		out[scheme][names[i/len(IsolatingSchemes)]] = t
	}
	return out, names, nil
}

// Table3 prints the scheduling-time table.
func Table3(cfg Config) error {
	data, names, err := Table3Data(cfg)
	if err != nil {
		return err
	}
	w := cfg.out()
	fmt.Fprintf(w, "Table 3: Average scheduling time per job in seconds (scale %.2f)\n", cfg.scale())
	fmt.Fprintf(w, "%-8s", "")
	for _, n := range names {
		fmt.Fprintf(w, " %10s", n)
	}
	fmt.Fprintln(w)
	for _, scheme := range []string{"TA", "LaaS", "Jigsaw", "LC+S"} {
		fmt.Fprintf(w, "%-8s", scheme)
		for _, n := range names {
			fmt.Fprintf(w, " %10.5f", data[scheme][n])
		}
		fmt.Fprintln(w)
	}
	return nil
}

// All runs every experiment in paper order.
func All(cfg Config) error {
	steps := []func(Config) error{Table1, Figure6, Table2, Figure7, Figure8, Table3}
	for _, f := range steps {
		if err := f(cfg); err != nil {
			return err
		}
		fmt.Fprintln(cfg.out())
	}
	return nil
}
