// Command jigsim runs a single scheduling simulation: one trace, one
// scheduling scheme, one performance scenario, and prints the summary
// metrics.
//
// Usage:
//
//	jigsim -trace Synth-16 -scheme Jigsaw -scenario 10% [-scale 0.1]
//	jigsim -swf cluster.swf -nodes 1458 -scheme Jigsaw
//
// Traces: Synth-16, Synth-22, Synth-28, Aug-Cab, Sep-Cab, Oct-Cab, Nov-Cab,
// Thunder, Atlas, or an SWF file via -swf. Schemes: Baseline, Jigsaw, LaaS,
// TA, LC+S. Scenarios: None, 5%, 10%, 20%, V2, Random.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	traceName := flag.String("trace", "Synth-16", "built-in trace name")
	swf := flag.String("swf", "", "path to an SWF trace file (overrides -trace)")
	nodes := flag.Int("nodes", 0, "system node cap for -swf traces")
	zeroArr := flag.Bool("zero-arrivals", false, "discard SWF submit times (all jobs at t=0)")
	scheme := flag.String("scheme", "Jigsaw", "scheduling scheme")
	scName := flag.String("scenario", "None", "performance scenario")
	scale := flag.Float64("scale", 0.1, "trace scale factor in (0, 1]")
	flag.Parse()

	tr, err := loadTrace(*traceName, *swf, *nodes, *zeroArr, *scale)
	if err != nil {
		fatal(err)
	}
	sc, err := scenario.ByName(*scName)
	if err != nil {
		fatal(err)
	}
	res, err := experiments.Run(tr, *scheme, sc)
	if err != nil {
		fatal(err)
	}
	tree, _ := experiments.TreeFor(tr)
	fmt.Printf("trace %s (%d jobs) on %s, scheme %s, scenario %s\n",
		tr.Name, len(tr.Jobs), tree, *scheme, sc.Name())
	fmt.Printf("  utilization (steady state):  %6.2f%%\n", 100*metrics.Utilization(res))
	fmt.Printf("  makespan:                    %.0f s\n", metrics.Makespan(res))
	fmt.Printf("  mean turnaround (all jobs):  %.0f s\n", metrics.MeanTurnaround(res, 0))
	fmt.Printf("  mean turnaround (>100):      %.0f s\n", metrics.MeanTurnaround(res, 100))
	if len(res.Rejected) > 0 {
		fmt.Printf("  rejected jobs:               %d\n", len(res.Rejected))
	}
	ta := make([]float64, 0, len(res.Records))
	for _, r := range res.Records {
		ta = append(ta, r.Turnaround())
	}
	s := stats.Summarize(ta)
	fmt.Printf("  turnaround distribution:     p50=%.0fs p90=%.0fs p99=%.0fs max=%.0fs\n",
		s.P50, s.P90, s.P99, s.Max)
}

func loadTrace(name, swf string, nodes int, zeroArr bool, scale float64) (*trace.Trace, error) {
	if swf != "" {
		f, err := os.Open(swf)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.ParseSWF(f, swf, nodes, zeroArr)
	}
	for _, tr := range trace.All(scale) {
		if tr.Name == name {
			return tr, nil
		}
	}
	return nil, fmt.Errorf("unknown trace %q", name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "jigsim:", err)
	os.Exit(1)
}
