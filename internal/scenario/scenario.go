// Package scenario implements the job performance-improvement scenarios of
// Section 5.4.1. When a job runs inside an isolated (interference-free)
// partition it may speed up relative to its runtime under traditional
// scheduling; each scenario decides which jobs speed up and by how much.
//
// A speed-up of s means the isolated runtime is runtime/(1+s): a job that is
// "20% faster" completes the same work in 1/1.2 of the time.
//
// Randomized scenarios (V2, Random) draw per-job values from a deterministic
// hash of the job ID, so a given job receives the same speed-up under every
// isolating scheduler and across repeated runs.
package scenario

import (
	"fmt"

	"repro/internal/trace"
)

// Scenario assigns isolated-execution speed-ups to jobs.
type Scenario interface {
	// Name is the label used in figures ("None", "5%", "V2", ...).
	Name() string
	// Speedup returns s >= 0; the isolated runtime is Runtime/(1+s).
	Speedup(j trace.Job) float64
}

// IsolatedRuntime applies a scenario to a job.
func IsolatedRuntime(s Scenario, j trace.Job) float64 {
	return j.Runtime / (1 + s.Speedup(j))
}

// None is the worst case: no job benefits from isolation.
type None struct{}

// Name implements Scenario.
func (None) Name() string { return "None" }

// Speedup implements Scenario.
func (None) Speedup(trace.Job) float64 { return 0 }

// Fixed speeds up every job larger than four nodes by Pct percent (the
// paper's 5%, 10%, and 20% scenarios, taken from the TA paper).
type Fixed struct{ Pct int }

// Name implements Scenario.
func (f Fixed) Name() string { return itoa(f.Pct) + "%" }

// Speedup implements Scenario.
func (f Fixed) Speedup(j trace.Job) float64 {
	if j.Size <= 4 {
		return 0
	}
	return float64(f.Pct) / 100
}

// V2 is the TA paper's size-scaled scenario: jobs are randomly assigned to
// speed-up buckets with caps from 0% to 30%, and within a bucket the
// speed-up scales linearly with node count (reference size 256). Jobs of at
// most four nodes never speed up.
type V2 struct{}

// v2Caps are the bucket caps (fractions).
var v2Caps = [4]float64{0, 0.10, 0.20, 0.30}

// Name implements Scenario.
func (V2) Name() string { return "V2" }

// Speedup implements Scenario.
func (V2) Speedup(j trace.Job) float64 {
	if j.Size <= 4 {
		return 0
	}
	cap := v2Caps[hash(j.ID, 0xa5)%4]
	frac := float64(j.Size) / 256
	if frac > 1 {
		frac = 1
	}
	return cap * frac
}

// Random is the paper's own least-optimistic scenario: only jobs larger than
// 64 nodes ever speed up, each by 0%, 5%, 15%, or 30% at random.
type Random struct{}

// randomSpeedups are the equally-likely choices.
var randomSpeedups = [4]float64{0, 0.05, 0.15, 0.30}

// Name implements Scenario.
func (Random) Name() string { return "Random" }

// Speedup implements Scenario.
func (Random) Speedup(j trace.Job) float64 {
	if j.Size <= 64 {
		return 0
	}
	return randomSpeedups[hash(j.ID, 0x3c)%4]
}

// All returns the six scenarios in the order of Figures 7 and 8.
func All() []Scenario {
	return []Scenario{None{}, Fixed{5}, Fixed{10}, Fixed{20}, V2{}, Random{}}
}

// ByName returns the scenario of All with the given figure label.
func ByName(name string) (Scenario, error) {
	for _, sc := range All() {
		if sc.Name() == name {
			return sc, nil
		}
	}
	return nil, fmt.Errorf("unknown scenario %q", name)
}

// hash is a splitmix-style deterministic per-job hash.
func hash(id int64, salt uint64) uint64 {
	x := uint64(id)*0x9e3779b97f4a7c15 + salt*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
