package scenario

import (
	"testing"

	"repro/internal/trace"
)

func job(id int64, size int) trace.Job {
	return trace.Job{ID: id, Size: size, Runtime: 1200}
}

func TestNone(t *testing.T) {
	if (None{}).Speedup(job(1, 1000)) != 0 {
		t.Fatal("None must never speed up")
	}
	if IsolatedRuntime(None{}, job(1, 100)) != 1200 {
		t.Fatal("runtime must be unchanged")
	}
}

func TestFixedThreshold(t *testing.T) {
	f := Fixed{20}
	if f.Speedup(job(1, 4)) != 0 {
		t.Fatal("jobs of <= 4 nodes never speed up")
	}
	if f.Speedup(job(1, 5)) != 0.20 {
		t.Fatal("larger jobs speed up by the fixed percentage")
	}
	got := IsolatedRuntime(f, job(1, 100))
	want := 1200 / 1.2
	if got != want {
		t.Fatalf("isolated runtime = %g, want %g", got, want)
	}
	if f.Name() != "20%" {
		t.Fatalf("name = %q", f.Name())
	}
}

func TestV2Properties(t *testing.T) {
	v := V2{}
	if v.Speedup(job(7, 4)) != 0 {
		t.Fatal("small jobs never speed up")
	}
	seen := map[float64]bool{}
	for id := int64(1); id <= 500; id++ {
		s := v.Speedup(job(id, 256))
		if s < 0 || s > 0.30 {
			t.Fatalf("V2 speed-up %g outside [0, 0.30]", s)
		}
		seen[s] = true
		if v.Speedup(job(id, 256)) != s {
			t.Fatal("V2 not deterministic")
		}
		// Linear scaling with size within a bucket.
		half := v.Speedup(job(id, 128))
		if s > 0 && (half <= 0 || half >= s) {
			t.Fatalf("V2 must scale with size: full=%g half=%g", s, half)
		}
	}
	if len(seen) < 4 {
		t.Fatalf("expected all four buckets over 500 jobs, saw %d", len(seen))
	}
	// Cap: sizes above the reference do not exceed 30%.
	for id := int64(1); id <= 100; id++ {
		if v.Speedup(job(id, 1024)) > 0.30 {
			t.Fatal("V2 cap exceeded")
		}
	}
}

func TestRandomScenario(t *testing.T) {
	r := Random{}
	if r.Speedup(job(3, 64)) != 0 {
		t.Fatal("jobs of <= 64 nodes never speed up under Random")
	}
	seen := map[float64]bool{}
	for id := int64(1); id <= 500; id++ {
		s := r.Speedup(job(id, 200))
		switch s {
		case 0, 0.05, 0.15, 0.30:
			seen[s] = true
		default:
			t.Fatalf("unexpected Random speed-up %g", s)
		}
	}
	if len(seen) != 4 {
		t.Fatalf("expected all four Random values, saw %d", len(seen))
	}
}

func TestAllOrder(t *testing.T) {
	names := []string{"None", "5%", "10%", "20%", "V2", "Random"}
	for i, s := range All() {
		if s.Name() != names[i] {
			t.Fatalf("scenario %d = %q, want %q", i, s.Name(), names[i])
		}
	}
}

func TestByName(t *testing.T) {
	for _, s := range All() {
		got, err := ByName(s.Name())
		if err != nil || got != s {
			t.Fatalf("ByName(%q) = %v, %v; want %v", s.Name(), got, err, s)
		}
	}
	if _, err := ByName("15%"); err == nil {
		t.Fatal("an unknown label must error")
	}
}
