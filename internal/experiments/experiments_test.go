package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/trace"
)

func TestTreeForMapsTracesToPaperClusters(t *testing.T) {
	cases := []struct {
		tr    *trace.Trace
		nodes int
	}{
		{trace.Synth16(0.02), 1024},
		{trace.Synth22(0.02), 2662},
		{trace.Synth28(0.02), 5488},
		{trace.ThunderLike(0.02), 1458},
		{trace.AtlasLike(0.02), 1458},
		{trace.OctCab(0.02), 1458},
	}
	for _, c := range cases {
		tree, err := TreeFor(c.tr)
		if err != nil {
			t.Fatalf("%s: %v", c.tr.Name, err)
		}
		if tree.Nodes() != c.nodes {
			t.Errorf("%s simulated on %d nodes, want %d", c.tr.Name, tree.Nodes(), c.nodes)
		}
	}
	// SWF-style trace without a preset radix: smallest paper cluster that
	// fits the largest job.
	anon := &trace.Trace{Name: "anon", Jobs: []trace.Job{{ID: 1, Size: 2000, Runtime: 1}}}
	tree, err := TreeFor(anon)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Nodes() != 2662 {
		t.Fatalf("fallback chose %d nodes", tree.Nodes())
	}
	tooBig := &trace.Trace{Name: "big", Jobs: []trace.Job{{ID: 1, Size: 99999, Runtime: 1}}}
	if _, err := TreeFor(tooBig); err == nil {
		t.Fatal("oversized trace must error")
	}
}

func TestNewAllocatorCoversAllSchemes(t *testing.T) {
	tree, _ := TreeFor(trace.Synth16(0.02))
	for _, s := range Schemes {
		a, err := NewAllocator(s, tree)
		if err != nil {
			t.Fatal(err)
		}
		if a.Name() != s {
			t.Fatalf("name %q != %q", a.Name(), s)
		}
	}
	if _, err := NewAllocator("nope", tree); err == nil {
		t.Fatal("unknown scheme must error")
	}
}

// TestUtilizationOrdering checks the paper's central Figure 6 relationships
// on a small Synth-16 run: Baseline >= Jigsaw > LaaS, and Jigsaw at least 94%.
func TestUtilizationOrdering(t *testing.T) {
	tr := trace.Synth16(0.05)
	util := map[string]float64{}
	for _, scheme := range []string{"Baseline", "Jigsaw", "LaaS", "TA"} {
		res, err := Run(tr, scheme, scenario.None{})
		if err != nil {
			t.Fatal(err)
		}
		util[scheme] = metrics.Utilization(res)
	}
	if util["Baseline"] < util["Jigsaw"] {
		t.Fatalf("Baseline %.3f < Jigsaw %.3f", util["Baseline"], util["Jigsaw"])
	}
	if util["Jigsaw"] <= util["LaaS"] {
		t.Fatalf("Jigsaw %.3f <= LaaS %.3f: isolation flexibility lost", util["Jigsaw"], util["LaaS"])
	}
	if util["Jigsaw"] <= util["TA"] {
		t.Fatalf("Jigsaw %.3f <= TA %.3f", util["Jigsaw"], util["TA"])
	}
	if util["Jigsaw"] < 0.94 {
		t.Fatalf("Jigsaw utilization %.3f below the paper's 94%% band", util["Jigsaw"])
	}
}

func TestTable1Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(Config{Scale: 0.02, Out: &buf}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{"Synth-16", "Atlas", "Thunder", "Oct-Cab"} {
		if !strings.Contains(out, name) {
			t.Fatalf("Table 1 output missing %s:\n%s", name, out)
		}
	}
}

func TestTable2DataBucketsSumToSamples(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-thousand-job simulation")
	}
	g, err := Config{Scale: 0.02}.simulate(table2(0.02))
	if err != nil {
		t.Fatal(err)
	}
	hist := func(scheme string) []int { return g[cell{"Thunder", scheme, "None"}].hist }
	for _, scheme := range []string{"LaaS", "Jigsaw", "TA"} {
		total := 0
		for _, c := range hist(scheme) {
			total += c
		}
		if total == 0 {
			t.Fatalf("%s: no instantaneous samples", scheme)
		}
	}
	// Jigsaw reaches >=98% instantaneous utilization far more often than
	// LaaS, whose rounded-up allocations cap it (the Table 2 story).
	if hist("Jigsaw")[0] <= hist("LaaS")[0] {
		t.Fatalf("Jigsaw >=98 bucket (%d) should exceed LaaS's (%d)", hist("Jigsaw")[0], hist("LaaS")[0])
	}
}

// normalizedValues simulates one Figure 7 or 8 table and returns its
// values by scenario and scheme.
func normalizedValues(t *testing.T, cfg Config, tb table) map[string]map[string][]float64 {
	t.Helper()
	g, err := cfg.simulate([]table{tb})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]map[string][]float64{}
	for r, sc := range tb.rows {
		out[sc] = map[string][]float64{}
		for c, scheme := range tb.cols {
			out[sc][scheme] = tb.value(g, r, c)
		}
	}
	return out
}

func TestFigure7DataNormalizesToBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs LC+S across six scenarios")
	}
	d := normalizedValues(t, Config{Scale: 0.01}, figure7(0.01)[0]) // Aug-Cab
	for _, sc := range scenario.All() {
		for _, scheme := range IsolatingSchemes {
			if c := d[sc.Name()][scheme]; c[0] <= 0 || c[1] <= 0 {
				t.Fatalf("%s/%s: non-positive normalized turnaround", sc.Name(), scheme)
			}
		}
	}
	// Speed-ups can only help: 20% turnaround must not exceed None for the
	// same scheme.
	for _, scheme := range IsolatingSchemes {
		if d["20%"][scheme][0] > d["None"][scheme][0]*1.05 {
			t.Fatalf("%s: 20%% scenario slower than None", scheme)
		}
	}
}

func TestFigure8DataMakespanImprovesWithSpeedups(t *testing.T) {
	if testing.Short() {
		t.Skip("runs LC+S across six scenarios")
	}
	d := normalizedValues(t, Config{Scale: 0.01}, figure8(0.01)[0]) // Thunder
	for _, scheme := range IsolatingSchemes {
		none, twenty := d["None"][scheme][0], d["20%"][scheme][0]
		if twenty > none*1.02 {
			t.Fatalf("%s: makespan with 20%% speed-ups (%.3f) exceeds None (%.3f)", scheme, twenty, none)
		}
	}
}

func TestRunUnknownScheme(t *testing.T) {
	if _, err := Run(trace.Synth16(0.02), "bogus", scenario.None{}); err == nil {
		t.Fatal("unknown scheme must error")
	}
}
