package experiments

import (
	"cmp"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// The harness's unit of work is the cell: one (trace, scheme, scenario)
// simulation. One cell can feed several tables — Figure 6's runs are Table
// 2's, Table 3's, and the None rows and Baseline denominators of Figures 7
// and 8 — so a report simulates the union of the cells its tables read,
// each once. Cells are independent (each run builds its own tree, allocator
// and engine; traces are only read), so they run on a bounded worker pool
// in any order; workers write into an index-addressed slice and tables are
// printed from the finished grid, so the bytes are the same for every
// worker count.

// A cell is one simulation: a trace under a scheme and a scenario.
type cell struct{ trace, scheme, scenario string }

// A record is what the tables read of one simulated cell. A run is reduced
// to it as soon as it ends, so the grid holds a few numbers per cell and
// never a run's per-job records, whatever the scale.
type record struct {
	util            float64 // steady-state utilization (Figure 6)
	turnaround      float64 // mean turnaround of all jobs (Figure 7)
	turnaroundLarge float64 // ... and of jobs larger than 100 nodes
	makespan        float64 // Figure 8
	hist            []int   // instantaneous-utilization buckets (Table 2)
	schedTime       float64 // scheduling seconds per job (Table 3)
}

// A grid is every simulated cell's record.
type grid map[cell]record

func (c Config) workers() int {
	if c.Workers <= 0 {
		return runtime.NumCPU()
	}
	return c.Workers
}

// simulate runs each distinct cell the tables read once, on the worker
// pool, and returns the grid of their records.
func (c Config) simulate(tables []table) (grid, error) {
	traces := map[string]*trace.Trace{}
	for _, tr := range trace.All(c.scale()) {
		traces[tr.Name] = tr
	}
	scenarios := map[string]scenario.Scenario{}
	for _, sc := range scenario.All() {
		scenarios[sc.Name()] = sc
	}
	var cells []cell
	g := grid{}
	for _, t := range tables {
		for _, k := range t.cells() {
			if _, ok := g[k]; !ok {
				g[k] = record{}
				cells = append(cells, k)
			}
		}
	}
	recs := make([]record, len(cells))
	err := c.forEachCell(len(cells), func(i int) error {
		k := cells[i]
		res, err := c.run(traces[k.trace], k.scheme, scenarios[k.scenario])
		if err != nil {
			return fmt.Errorf("%s/%s/%s: %w", k.trace, k.scheme, k.scenario, err)
		}
		recs[i] = record{
			util:            metrics.Utilization(res),
			turnaround:      metrics.MeanTurnaround(res, 0),
			turnaroundLarge: metrics.MeanTurnaround(res, 100),
			makespan:        metrics.Makespan(res),
			hist:            metrics.InstHistogram(res),
			schedTime:       metrics.AvgSchedTime(res),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, k := range cells {
		g[k] = recs[i]
	}
	return g, nil
}

// forEachCell runs fn(0..n-1) on a bounded pool of workers(). Every cell is
// attempted even if an earlier one fails; the lowest-index error is
// returned, matching what a serial sweep would have reported first.
func (c Config) forEachCell(n int, fn func(i int) error) error {
	workers := min(c.workers(), n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return cmp.Or(errs...)
}
