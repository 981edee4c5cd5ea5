package snapshot

// The copy-on-write job sets a View holds. A set is a root slice of chunks,
// each a run of entries sorted by key, the chunks in key order. A publish
// copies the root once and each chunk it changes once, the first time it
// writes it; every other chunk is shared with the previous View. A chunk is
// written only by the publish that built it (its gen) and only before that
// publish's View is stored, so a published View never changes.

import (
	"slices"
	"sort"

	"repro/internal/engine"
)

// chunkMax bounds a chunk's entries. A publish copies the root (8 bytes per
// chunk) and every chunk it changes (up to chunkMax entries of ~112 bytes), so
// at 128 the root copy of a 20 000-job set is a tenth of one chunk's.
const chunkMax = 128

type entry struct {
	key int64
	st  engine.JobStatus
}

type chunk struct {
	gen uint64
	e   []entry
}

// jobSet maps keys to job statuses in key order.
type jobSet struct {
	gen    uint64 // the publish that last copied the root slice, chunks
	chunks []*chunk
	n      int
}

// find returns the chunk that holds key or would hold it, and key's position
// in it.
func (s *jobSet) find(key int64) (ci, ei int, found bool) {
	ci = sort.Search(len(s.chunks), func(i int) bool { return s.chunks[i].e[0].key > key }) - 1
	ci = max(ci, 0)
	c := s.chunks[ci].e
	ei = sort.Search(len(c), func(i int) bool { return c[i].key >= key })
	return ci, ei, ei < len(c) && c[ei].key == key
}

func (s *jobSet) get(key int64) (engine.JobStatus, bool) {
	if s.n == 0 {
		return engine.JobStatus{}, false
	}
	ci, ei, ok := s.find(key)
	if !ok {
		return engine.JobStatus{}, false
	}
	return s.chunks[ci].e[ei].st, true
}

// walk calls fn for every status in key order.
func (s *jobSet) walk(fn func(engine.JobStatus)) {
	for _, c := range s.chunks {
		for i := range c.e {
			fn(c.e[i].st)
		}
	}
}

// own makes chunk ci writable by publish gen: the root and the chunk are
// copied the first time gen writes them.
func (s *jobSet) own(gen uint64, ci int) *chunk {
	s.ownRoot(gen)
	c := s.chunks[ci]
	if c.gen != gen {
		c = &chunk{gen: gen, e: append(make([]entry, 0, len(c.e)+1), c.e...)}
		s.chunks[ci] = c
	}
	return c
}

func (s *jobSet) ownRoot(gen uint64) {
	if s.gen != gen {
		s.chunks, s.gen = slices.Clone(s.chunks), gen
	}
}

// put sets key's status, inserting it if absent.
func (s *jobSet) put(gen uint64, key int64, st engine.JobStatus) {
	if s.n == 0 {
		s.ownRoot(gen)
		s.chunks = append(s.chunks[:0], &chunk{gen: gen, e: []entry{{key, st}}})
		s.n = 1
		return
	}
	ci, ei, ok := s.find(key)
	if ok {
		if s.chunks[ci].e[ei].st != st {
			s.own(gen, ci).e[ei].st = st
		}
		return
	}
	s.n++
	c := s.own(gen, ci)
	if len(c.e) == chunkMax {
		if ci == len(s.chunks)-1 && ei == chunkMax {
			// Past the end of the last chunk, where rising keys (job IDs,
			// FIFO keys) always land: start a new chunk rather than leave
			// two half-full ones behind.
			s.chunks = append(s.chunks, &chunk{gen: gen, e: []entry{{key, st}}})
			return
		}
		h := chunkMax / 2
		right := &chunk{gen: gen, e: append(make([]entry, 0, chunkMax-h+1), c.e[h:]...)}
		c.e = c.e[:h]
		s.chunks = slices.Insert(s.chunks, ci+1, right)
		if ei > h {
			c, ei = right, ei-h
		}
	}
	c.e = slices.Insert(c.e, ei, entry{key, st})
}

// del removes key if present. A chunk left empty is dropped, and where two
// neighbours around the deletion fit in half a chunk and one of them is under
// a quarter full, they merge: every two neighbours then hold at least a
// quarter chunk, so the root stays O(n / chunkMax) long.
func (s *jobSet) del(gen uint64, key int64) {
	if s.n == 0 {
		return
	}
	ci, ei, ok := s.find(key)
	if !ok {
		return
	}
	s.n--
	c := s.own(gen, ci)
	if c.e = slices.Delete(c.e, ei, ei+1); len(c.e) == 0 {
		s.chunks = slices.Delete(s.chunks, ci, ci+1)
	}
	for _, lo := range []int{ci - 1, ci} {
		if lo < 0 || lo+1 >= len(s.chunks) {
			continue
		}
		a, b := len(s.chunks[lo].e), len(s.chunks[lo+1].e)
		if min(a, b) < chunkMax/4 && a+b <= chunkMax/2 {
			m := s.own(gen, lo)
			m.e = append(m.e, s.chunks[lo+1].e...)
			s.chunks = slices.Delete(s.chunks, lo+1, lo+2)
			return
		}
	}
}
