package snapshot

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/trace"
)

// TestJobSetMatchesMap runs random puts and deletes, a few per generation,
// against a map. Every generation's set must hold exactly the map's entries
// in key order, and every earlier generation must still hold what it held:
// a set shares chunks with its successors but never sees their writes. The
// set grows and shrinks by turns, so chunks split, empty out and merge.
func TestJobSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type version struct {
		set  jobSet
		want map[int64]engine.JobStatus
	}
	var versions []version
	var s jobSet
	want := map[int64]engine.JobStatus{}
	for gen := uint64(1); gen <= 2000; gen++ {
		shrinking := gen/500%2 == 1
		for k := rng.Intn(12); k >= 0; k-- {
			if shrinking && len(want) > 0 && rng.Intn(5) > 0 {
				for key := range want {
					s.del(gen, key)
					delete(want, key)
					break
				}
				continue
			}
			key := rng.Int63n(4000)
			if rng.Intn(3) == 0 {
				key = 4000 + int64(gen)*8 // rising keys, like job IDs and FIFO keys
			}
			if rng.Intn(5) == 0 {
				s.del(gen, key)
				delete(want, key)
				continue
			}
			st := engine.JobStatus{Job: trace.Job{ID: key, Size: rng.Intn(9)}}
			s.put(gen, key, st)
			want[key] = st
		}
		if gen%5 == 0 {
			checkSet(t, gen, s, want)
		}
		if gen%50 == 0 {
			versions = append(versions, version{s, maps.Clone(want)})
		}
	}
	for i, v := range versions {
		checkSet(t, uint64(i), v.set, v.want)
	}
}

func checkSet(t *testing.T, gen uint64, s jobSet, want map[int64]engine.JobStatus) {
	t.Helper()
	keys := make([]int64, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var got []int64
	s.walk(func(st engine.JobStatus) { got = append(got, st.Job.ID) })
	if s.n != len(want) || !slices.Equal(got, keys) {
		t.Fatalf("generation %d: set of %d holds %v, want %v", gen, s.n, got, keys)
	}
	for k, st := range want {
		if g, ok := s.get(k); !ok || g != st {
			t.Fatalf("generation %d: get(%d) = %+v, %v; want %+v", gen, k, g, ok, st)
		}
	}
	for i, c := range s.chunks {
		if len(c.e) == 0 || len(c.e) > chunkMax {
			t.Fatalf("generation %d: chunk %d holds %d entries", gen, i, len(c.e))
		}
		if i > 0 && len(c.e)+len(s.chunks[i-1].e) < chunkMax/4 {
			t.Fatalf("generation %d: chunks %d and %d hold %d entries together", gen, i-1, i, len(c.e)+len(s.chunks[i-1].e))
		}
	}
}
