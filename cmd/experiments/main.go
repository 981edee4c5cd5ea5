// Command experiments regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	experiments [-run all|table1|fig6|table2|fig7|fig8|table3] [-csv] [-scale 0.1] [-workers N]
//	            [-fail-trace events.txt] [-fail-policy requeue] [-elastic]
//
// -run all prints every table, simulating each distinct (trace, scheme,
// scenario) cell once. -csv prints one experiment's observations, a row
// each, for plotting tools; table1 and all have no CSV form and refuse it.
//
// -scale shrinks trace job counts for quick runs; 1.0 reproduces the paper's
// job counts (and a correspondingly long runtime, hours when LC+S is
// involved at full scale, just as the paper reports).
//
// -workers bounds how many cells run concurrently (default: one per CPU).
// Output is byte-identical for every worker count, except Table 3's
// wall-clock timings: use -workers 1 for faithful ones.
//
// -fail-trace replays a fault-injection file (see internal/failtrace for the
// format) inside every simulation cell, measuring the schedulers on a
// degraded fabric; -fail-policy picks what happens to running jobs hit by a
// failure (requeue, kill, or shrink — shrink additionally needs -elastic and
// jobs that declare min_nodes, and falls back to requeue for rigid jobs).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/failtrace"
)

func main() {
	run := flag.String("run", "all", "experiment to run: "+strings.Join(experiments.Names, ", "))
	scale := flag.Float64("scale", 0.1, "trace scale factor in (0, 1]; 1.0 = paper job counts")
	csvOut := flag.Bool("csv", false, "emit one experiment's observations as CSV instead of text (fig6, table2, fig7, fig8, table3; others refuse)")
	workers := flag.Int("workers", 0, "concurrent simulation cells; 0 = one per CPU (output is identical for any value)")
	failTrace := flag.String("fail-trace", "", "fault-injection trace replayed in every simulation cell (see internal/failtrace)")
	failPolicy := flag.String("fail-policy", "requeue", "what happens to running jobs hit by a failure: requeue|kill|shrink")
	elastic := flag.Bool("elastic", false, "enable malleability paths for jobs declaring elastic fields (needed by -fail-policy shrink)")
	flag.Parse()

	cfg := experiments.Config{Scale: *scale, Out: os.Stdout, Workers: *workers, MeasureTime: true, Elastic: *elastic}
	var err error
	if *failTrace != "" {
		cfg.FailEvents, err = failtrace.ParseFile(*failTrace)
	}
	if err == nil {
		cfg.FailPolicy, err = engine.ParseFailurePolicy(*failPolicy)
	}
	if err == nil {
		err = experiments.Report(cfg, *run, *csvOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
