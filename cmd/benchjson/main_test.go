package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
BenchmarkSearch/radix=16/two-level-8   620492   180.0 ns/op   36 B/op   0 allocs/op
BenchmarkSearch/radix=16/two-level-8   610000   190.0 ns/op   36 B/op   0 allocs/op
BenchmarkSearch/radix=16/two-level-8   630000   200.0 ns/op   36 B/op   0 allocs/op
BenchmarkQueueReadIdle-8   2000   13426 ns/op   6550 p50-ns   51314 p99-ns
PASS
`

func TestParseMediansAndOrder(t *testing.T) {
	out, order, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "BenchmarkSearch/radix=16/two-level" || order[1] != "BenchmarkQueueReadIdle" {
		t.Fatalf("order = %v", order)
	}
	r := out["BenchmarkSearch/radix=16/two-level"]
	if r.Runs != 3 || r.NsPerOp != 190.0 {
		t.Fatalf("median result %+v", r)
	}
	if r.BPerOp == nil || *r.BPerOp != 36 {
		t.Fatalf("B/op %+v", r.BPerOp)
	}
	// ReportMetric columns (p50-ns etc.) must not pollute the ns/op median.
	if q := out["BenchmarkQueueReadIdle"]; q.NsPerOp != 13426 || q.Runs != 1 {
		t.Fatalf("ReportMetric parse: %+v", q)
	}
}

func TestCompareGate(t *testing.T) {
	base := map[string]result{
		"A": {NsPerOp: 100},
		"B": {NsPerOp: 100},
		"C": {NsPerOp: 100},
		"D": {NsPerOp: 100}, // deleted from the current suite
	}
	current := map[string]result{
		"A": {NsPerOp: 110},  // +10%: within the 15% tolerance
		"B": {NsPerOp: 120},  // +20%: regression
		"C": {NsPerOp: 50},   // improvement: never fails
		"E": {NsPerOp: 1e06}, // new benchmark: not gated
	}
	got := compare(current, base, 0.15)
	verdicts := map[string]regression{}
	for _, r := range got {
		verdicts[r.Name] = r
	}
	if len(got) != 4 {
		t.Fatalf("compared %d benchmarks, want 4 (baseline side): %+v", len(got), got)
	}
	if verdicts["A"].Breached || verdicts["C"].Breached {
		t.Fatalf("within-tolerance or improved marked as regression: %+v", verdicts)
	}
	if !verdicts["B"].Breached {
		t.Fatalf("B +20%% not flagged: %+v", verdicts["B"])
	}
	if d := verdicts["D"]; d.Current != 0 || d.Breached {
		t.Fatalf("deleted benchmark should be skipped, not failed: %+v", d)
	}
	if _, gated := verdicts["E"]; gated {
		t.Fatal("new benchmark must not be gated")
	}
}

// fp returns a *float64 for building baseline/current fixtures.
func fp(v float64) *float64 { return &v }

func TestCompareAllocGate(t *testing.T) {
	base := map[string]result{
		"ZeroKept":    {NsPerOp: 100, AllocsOp: fp(0)},
		"ZeroDrifted": {NsPerOp: 100, AllocsOp: fp(0)},
		"ZeroUnknown": {NsPerOp: 100, AllocsOp: fp(0)},
		"NonzeroGrew": {NsPerOp: 100, AllocsOp: fp(5)},
		"NoAllocData": {NsPerOp: 100},
	}
	current := map[string]result{
		"ZeroKept":    {NsPerOp: 100, AllocsOp: fp(0)},
		"ZeroDrifted": {NsPerOp: 100, AllocsOp: fp(1)},
		"ZeroUnknown": {NsPerOp: 100}, // no -benchmem in the current run
		"NonzeroGrew": {NsPerOp: 100, AllocsOp: fp(50)},
		"NoAllocData": {NsPerOp: 100, AllocsOp: fp(3)},
	}
	verdicts := map[string]regression{}
	for _, r := range compare(current, base, 0.15) {
		verdicts[r.Name] = r
	}
	if v := verdicts["ZeroKept"]; v.AllocBreached || v.AllocUnknown || v.Breached {
		t.Fatalf("zero-alloc baseline held at zero must pass: %+v", v)
	}
	if v := verdicts["ZeroDrifted"]; !v.AllocBreached || v.AllocCurrent != 1 {
		t.Fatalf("0 -> 1 allocs/op must breach with zero tolerance: %+v", v)
	}
	if v := verdicts["ZeroDrifted"]; v.Breached {
		t.Fatalf("alloc breach must not masquerade as an ns/op breach: %+v", v)
	}
	if v := verdicts["ZeroUnknown"]; !v.AllocUnknown || v.AllocBreached {
		t.Fatalf("missing current alloc data must warn, not fail: %+v", v)
	}
	// Nonzero baselines are pinned by dedicated tests where they matter;
	// the gate only enforces the exact zero-alloc guarantee.
	if v := verdicts["NonzeroGrew"]; v.AllocBreached || v.AllocUnknown {
		t.Fatalf("nonzero baseline must not be alloc-gated: %+v", v)
	}
	if v := verdicts["NoAllocData"]; v.AllocBreached || v.AllocUnknown {
		t.Fatalf("baseline without alloc data must not be alloc-gated: %+v", v)
	}
}

func TestRenderRoundTrips(t *testing.T) {
	out, order, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	doc := render(out, order)
	if !strings.HasPrefix(doc, "{\n") || !strings.HasSuffix(doc, "\n}\n") {
		t.Fatalf("render shape:\n%s", doc)
	}
	if !strings.Contains(doc, `"BenchmarkSearch/radix=16/two-level": {"runs":3,"ns_per_op":190`) {
		t.Fatalf("render content:\n%s", doc)
	}
}

// TestBaselineSkipsMeta: a document benchjson wrote is a baseline benchjson
// reads, and its _meta object is not mistaken for a benchmark.
func TestBaselineSkipsMeta(t *testing.T) {
	out, order, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	doc := render(out, order)
	if !strings.HasPrefix(doc, "{\n  \"_meta\": {\"go\":\"go") {
		t.Fatalf("document does not open with _meta:\n%s", doc)
	}
	base, err := readBaseline([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := base[metaKey]; ok || len(base) != 2 {
		t.Fatalf("baseline = %+v, want the two benchmarks and no _meta", base)
	}
	for _, r := range compare(out, base, 0) {
		if r.Breached || r.Current == 0 {
			t.Fatalf("a run gated against itself: %+v", r)
		}
	}
}
