// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6): average system utilization (Figure 6),
// instantaneous-utilization frequencies (Table 2), normalized job turnaround
// times (Figure 7), normalized makespans (Figure 8), and average scheduling
// time per job (Table 3), plus the trace-characteristics table (Table 1).
//
// Every simulated table is a view over one grid of (trace, scheme,
// scenario) cells, each simulated once per report (grid.go), printed by one
// text writer or one CSV writer (tables.go). Output is deterministic except
// for Table 3's wall-clock scheduling times. Scale shrinks trace job counts
// for quick runs; 1.0 reproduces the paper's counts (and runtimes).
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
// It measures no scheduling time; Table 3 is where that is reported.
func Run(tr *trace.Trace, scheme string, sc scenario.Scenario) (*sched.Result, error) {
	return Config{}.run(tr, scheme, sc)
}

// run simulates one cell, injecting the config's fail events if any.
func (c Config) run(tr *trace.Trace, scheme string, sc scenario.Scenario) (*sched.Result, error) {
	tree, err := TreeFor(tr)
	if err != nil {
		return nil, err
	}
	a, err := NewAllocator(scheme, tree)
	if err != nil {
		return nil, err
	}
	s := sched.New(a, sc)
	s.MeasureAllocTime = c.MeasureTime
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

// Names are the -run values Report accepts, in paper order.
var Names = []string{"all", "table1", "fig6", "table2", "fig7", "fig8", "table3"}

// Report prints one experiment, or with "all" every one in paper order,
// each followed by a blank line. The cells all of them read are simulated
// first, each distinct one once. With csvOut it prints the one experiment's
// observations as CSV instead; Table 1 and "all" have no CSV form and
// refuse it.
func Report(cfg Config, name string, csvOut bool) error {
	if !slices.Contains(Names, name) {
		return fmt.Errorf("unknown experiment %q (want one of %s)", name, strings.Join(Names, ", "))
	}
	w, scale := cfg.out(), cfg.scale()
	var exps []experiment
	var tables []table
	for _, e := range experiments {
		if name == "all" || name == e.name {
			exps = append(exps, e)
			tables = append(tables, e.tables(scale)...)
		}
	}
	if csvOut && len(exps) != 1 {
		return fmt.Errorf("%s has no CSV form (fig6, table2, fig7, fig8 and table3 have one)", name)
	}
	if name == "table1" || name == "all" {
		if err := Table1(cfg); err != nil || name == "table1" {
			return err
		}
		fmt.Fprintln(w)
	}
	g, err := cfg.simulate(tables)
	if err != nil {
		return err
	}
	for _, e := range exps {
		if err := e.write(w, g, scale, csvOut); err != nil {
			return err
		}
		if name == "all" {
			fmt.Fprintln(w)
		}
	}
	return nil
}
