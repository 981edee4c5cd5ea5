// Package metrics computes the evaluation metrics of Section 5 from
// simulation results: steady-state average system utilization, job
// turnaround time, makespan (throughput), instantaneous-utilization
// frequencies (Table 2), and average scheduling time per job (Table 3).
package metrics

import (
	"repro/internal/engine"
	"repro/internal/sched"
)

// Utilization returns the average system utilization over the steady-state
// portion of the run:
//
//	U = sum_j N_j * t_j / (N_system * t_total)
//
// integrated from the first arrival to the start of the final drain (the
// last moment the queue was non-empty), matching the paper's exclusion of
// the ramp-down. If the queue never formed (offered load below capacity for
// the whole run), the full span is used.
func Utilization(r *sched.Result) float64 {
	start := r.FirstArrival
	end := r.SteadyEnd
	if end <= start {
		end = r.LastEnd
	}
	return SeriesUtilization(r.UtilSeries, start, end, r.SystemNodes)
}

// SeriesUtilization integrates a used-node step function over [start, end]
// and normalizes by systemNodes. The final point's value extends to end,
// which lets the online daemon evaluate utilization-to-now on a series that
// is still open. It returns 0 on an empty series or a degenerate interval.
func SeriesUtilization(series []engine.UtilPoint, start, end float64, systemNodes int) float64 {
	if end <= start || len(series) == 0 || systemNodes <= 0 {
		return 0
	}
	integral := 0.0
	for i, p := range series {
		t0 := p.T
		t1 := end
		if i+1 < len(series) {
			t1 = series[i+1].T
		}
		if t0 < start {
			t0 = start
		}
		if t1 > end {
			t1 = end
		}
		if t1 > t0 {
			integral += float64(p.Used) * (t1 - t0)
		}
	}
	return integral / (float64(systemNodes) * (end - start))
}

// Makespan is the time from the first arrival to the last completion
// (Section 5's throughput proxy).
func Makespan(r *sched.Result) float64 { return r.LastEnd - r.FirstArrival }

// MeanTurnaround averages turnaround time over jobs larger than minSize
// nodes (0 covers all jobs; the paper's "large jobs" use 100). It returns 0
// when no job qualifies.
func MeanTurnaround(r *sched.Result, minSize int) float64 {
	sum, n := 0.0, 0
	for _, rec := range r.Records {
		if rec.Job.Size > minSize {
			sum += rec.Turnaround()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Table2Bounds are the paper's instantaneous-utilization buckets, in
// percent: >=98, 95-97, 90-95, 80-90, 60-80, <=60.
var Table2Bounds = []float64{98, 95, 90, 80, 60}

// Table2Labels name the buckets in report order.
var Table2Labels = []string{">=98", "95-97", "90-95", "80-90", "60-80", "<=60"}

// InstHistogram counts instantaneous-utilization samples per Table 2 bucket.
func InstHistogram(r *sched.Result) []int {
	counts := make([]int, len(Table2Bounds)+1)
	for _, s := range r.InstSamples {
		pct := s * 100
		placed := false
		for i, b := range Table2Bounds {
			if pct >= b {
				counts[i]++
				placed = true
				break
			}
		}
		if !placed {
			counts[len(counts)-1]++
		}
	}
	return counts
}

// AvgSchedTime is the average wall-clock scheduling (allocation search) time
// per job in seconds (Table 3).
func AvgSchedTime(r *sched.Result) float64 {
	n := len(r.Records) + len(r.Rejected)
	if n == 0 {
		return 0
	}
	return r.AllocSeconds / float64(n)
}
