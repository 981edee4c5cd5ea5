// Command benchjson condenses `go test -bench` output into a small JSON
// document of per-benchmark medians, for checking performance numbers into
// the repository (BENCH_<n>.json; see EXPERIMENTS.md's benchmark workflow).
// With -baseline it doubles as a regression gate: current medians are
// compared against a previously recorded snapshot and the exit status is 1
// if any shared benchmark slowed down by more than -tolerance.
//
// Usage:
//
//	go test -run '^$' -bench X -benchmem -count 5 ./... | benchjson > BENCH_n.json
//	go test -run '^$' -bench X -count 5 ./... | benchjson -baseline BENCH_n.json -tolerance 0.15
//
// It reads benchmark result lines from stdin, groups repeated runs (-count)
// by benchmark name with the -N CPU suffix stripped, and emits, per
// benchmark, the median ns/op and — when -benchmem was set — the median
// B/op and allocs/op. Non-benchmark lines are ignored, so raw `go test`
// output pipes straight in. The document opens with a "_meta" object — Go
// version, GOMAXPROCS, CPU count, GOOS/GOARCH of the host the pipe ran on —
// because numbers recorded under different _meta are not comparable; the gate
// skips it when it reads a baseline.
//
// The gate compares ns/op within -tolerance and, for benchmarks whose
// baseline records 0 allocs/op, allocs/op with zero tolerance — a zero-alloc
// guarantee that drifts to even one allocation per op is a regression no
// ns/op tolerance should forgive. Only benchmarks present on both sides are
// gated: new benchmarks pass, and benchmarks deleted from the suite are
// reported but do not fail the run. A zero-alloc baseline whose current run
// lacks -benchmem data is reported as a warning (the guarantee cannot be
// checked), not a failure. Improvements never fail.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// result is the JSON value emitted per benchmark. Medians are taken
// independently per metric across the repeated runs.
type result struct {
	Runs     int      `json:"runs"`
	NsPerOp  float64  `json:"ns_per_op"`
	BPerOp   *float64 `json:"bytes_per_op,omitempty"`
	AllocsOp *float64 `json:"allocs_per_op,omitempty"`
}

// benchLine matches e.g.
//
//	BenchmarkSearch/radix=16/two-level-8   620492   182.4 ns/op   36 B/op   0 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.*)$`)

func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// parse reads `go test -bench` output and returns per-benchmark medians in
// first-seen order.
func parse(r io.Reader) (map[string]result, []string, error) {
	type samples struct {
		ns, b, allocs []float64
	}
	byName := map[string]*samples{}
	var order []string

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		// Strip the GOMAXPROCS suffix so counts group across machines.
		name := m[1]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		s := byName[name]
		if s == nil {
			s = &samples{}
			byName[name] = s
			order = append(order, name)
		}
		// The tail is "value unit" pairs: ns/op, then optional -benchmem
		// and ReportMetric columns.
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				s.ns = append(s.ns, v)
			case "B/op":
				s.b = append(s.b, v)
			case "allocs/op":
				s.allocs = append(s.allocs, v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}

	out := make(map[string]result, len(byName))
	for name, s := range byName {
		if len(s.ns) == 0 {
			continue
		}
		r := result{Runs: len(s.ns), NsPerOp: median(s.ns)}
		if len(s.b) > 0 {
			v := median(s.b)
			r.BPerOp = &v
		}
		if len(s.allocs) > 0 {
			v := median(s.allocs)
			r.AllocsOp = &v
		}
		out[name] = r
	}
	return out, order, nil
}

// metaKey is the one key of a results document that is not a benchmark.
const metaKey = "_meta"

// meta says where the numbers were measured.
type meta struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// render emits the results document: _meta, then the benchmarks in
// first-seen order.
func render(out map[string]result, order []string) string {
	var buf strings.Builder
	mb, _ := json.Marshal(meta{runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH})
	fmt.Fprintf(&buf, "{\n  %q: %s", metaKey, mb)
	for _, name := range order {
		r, ok := out[name]
		if !ok {
			continue
		}
		kb, _ := json.Marshal(name)
		vb, _ := json.Marshal(r)
		fmt.Fprintf(&buf, ",\n  %s: %s", kb, vb)
	}
	buf.WriteString("\n}\n")
	return buf.String()
}

// readBaseline parses a results document recorded earlier, without its _meta.
func readBaseline(raw []byte) (map[string]result, error) {
	var base map[string]result
	if err := json.Unmarshal(raw, &base); err != nil {
		return nil, err
	}
	delete(base, metaKey)
	return base, nil
}

// regression is one gate verdict line.
type regression struct {
	Name     string
	Base     float64 // baseline ns/op
	Current  float64 // current ns/op
	Ratio    float64 // current/base
	Breached bool    // ns/op over tolerance

	// Alloc gate, active when the baseline records 0 allocs/op.
	AllocBreached bool    // current allocs/op > 0
	AllocCurrent  float64 // current allocs/op when breached
	AllocUnknown  bool    // baseline is zero-alloc but current lacks allocs/op
}

// compare gates current medians against a baseline: shared benchmarks whose
// ns/op grew by more than tolerance (0.15 = +15%) are breaches, and shared
// benchmarks whose baseline is 0 allocs/op breach on any nonzero current
// allocs/op (zero tolerance — the zero-alloc guarantee is exact). Benchmarks
// on only one side are skipped (returned with Base or Current zero so the
// caller can report them).
func compare(current, base map[string]result, tolerance float64) []regression {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []regression
	for _, name := range names {
		b := base[name]
		c, ok := current[name]
		if !ok {
			out = append(out, regression{Name: name, Base: b.NsPerOp})
			continue
		}
		ratio := c.NsPerOp / b.NsPerOp
		r := regression{
			Name: name, Base: b.NsPerOp, Current: c.NsPerOp, Ratio: ratio,
			Breached: ratio > 1+tolerance,
		}
		if b.AllocsOp != nil && *b.AllocsOp == 0 {
			switch {
			case c.AllocsOp == nil:
				r.AllocUnknown = true
			case *c.AllocsOp > 0:
				r.AllocBreached = true
				r.AllocCurrent = *c.AllocsOp
			}
		}
		out = append(out, r)
	}
	return out
}

func main() {
	var (
		baseline  = flag.String("baseline", "", "BENCH_n.json to gate against; exit 1 on regression")
		tolerance = flag.Float64("tolerance", 0.15, "allowed ns/op growth vs baseline (0.15 = +15%)")
	)
	flag.Parse()

	out, order, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(out) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	os.Stdout.WriteString(render(out, order))

	if *baseline == "" {
		return
	}
	raw, err := os.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	base, err := readBaseline(raw)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: parse %s: %v\n", *baseline, err)
		os.Exit(1)
	}
	failed := false
	for _, r := range compare(out, base, *tolerance) {
		switch {
		case r.Current == 0:
			fmt.Fprintf(os.Stderr, "benchjson: %s: in baseline but not in current run (skipped)\n", r.Name)
			continue
		case r.Breached:
			failed = true
			fmt.Fprintf(os.Stderr, "benchjson: REGRESSION %s: %.0f -> %.0f ns/op (%+.1f%%, tolerance %+.0f%%)\n",
				r.Name, r.Base, r.Current, (r.Ratio-1)*100, *tolerance*100)
		default:
			fmt.Fprintf(os.Stderr, "benchjson: ok %s: %.0f -> %.0f ns/op (%+.1f%%)\n",
				r.Name, r.Base, r.Current, (r.Ratio-1)*100)
		}
		switch {
		case r.AllocBreached:
			failed = true
			fmt.Fprintf(os.Stderr, "benchjson: ALLOC REGRESSION %s: 0 -> %g allocs/op (zero tolerance)\n",
				r.Name, r.AllocCurrent)
		case r.AllocUnknown:
			fmt.Fprintf(os.Stderr, "benchjson: %s: zero-alloc baseline but no allocs/op in current run — run with -benchmem\n",
				r.Name)
		}
	}
	if failed {
		os.Exit(1)
	}
}
