package sequence

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/dataset"
	"repro/internal/fanout"
)

// Reordered is the outcome of the paper's global record re-ordering (§3):
// records sorted lexicographically by sequence form with new dense ids
// 1..N assigned in that order, so that id order equals sf order. It is
// two parts with two lifetimes: the sequence forms, which a build reads
// and then drops, and the reassignment map, which an index keeps.
type Reordered struct {
	*Forms
	*IDMap
}

// Forms is every record's sequence form in new-id order, in one flat
// arena to stay compact at millions of records.
type Forms struct {
	flat []Rank   // all sequence forms, concatenated in new-id order
	off  []uint32 // off[i]..off[i+1] delimits new id i+1's sf; len = N+1
}

// IDMap is the reassignment map between new ids and source positions.
type IDMap struct {
	origIndex []uint32 // new id -> position in the source dataset (0-based)
	newID     []uint32 // source position -> new id (1-based)
}

// Reorder sorts d's records under ord and assigns new ids. The sort is
// stable, so duplicate set-values keep their relative source order —
// duplicates occupy consecutive new ids, which the OIF's equality path
// depends on.
//
// The sort is a most-significant-rank-first counting sort over the rank
// arena (sortForms). Its permutation is exactly that of a stable
// comparison sort by Compare, but a counting pass costs one rank read
// per record of its bucket plus a sweep of the domain, where the
// comparison sort spent O(N log N) comparisons through an indirection.
//
// It runs on up to workers goroutines: the sequence forms are built over
// ranges of source positions, the buckets of sortForms' first pass are
// sorted on their own, and the permuted arena is copied over ranges of
// new ids. Every worker writes its own part of each slice, so the
// outcome is the same at any worker count.
func Reorder(d *dataset.Dataset, ord *Order, workers int) (*Reordered, error) {
	workers = max(workers, 1)
	recs := d.Records()
	n := len(recs)
	srcOff := make([]uint32, n+1)
	for i, rec := range recs {
		srcOff[i+1] = srcOff[i] + uint32(len(rec.Set))
	}
	total := srcOff[n]
	// Every sequence form into a flat arena first, in source order.
	srcFlat := make([]Rank, total)
	err := fanout.First(fanout.ForEach(workers, workers, func(w int) error {
		for i := w * n / workers; i < (w+1)*n/workers; i++ {
			sf := srcFlat[srcOff[i]:srcOff[i+1]]
			for j, it := range recs[i].Set {
				r, err := ord.Rank(it)
				if err != nil {
					return err
				}
				sf[j] = r
			}
			slices.Sort(sf)
		}
		return nil
	}))
	if err != nil {
		return nil, err
	}

	perm := sortForms(srcFlat, srcOff, ord.DomainSize(), workers)
	f := &Forms{flat: make([]Rank, total), off: make([]uint32, n+1)}
	m := &IDMap{origIndex: perm, newID: make([]uint32, n)}
	for newIdx, src := range perm {
		f.off[newIdx+1] = f.off[newIdx] + srcOff[src+1] - srcOff[src]
	}
	fanout.ForEach(workers, workers, func(w int) error {
		for newIdx := w * n / workers; newIdx < (w+1)*n/workers; newIdx++ {
			src := perm[newIdx]
			copy(f.flat[f.off[newIdx]:], srcFlat[srcOff[src]:srcOff[src+1]])
			m.newID[src] = uint32(newIdx + 1)
		}
		return nil
	})
	return &Reordered{Forms: f, IDMap: m}, nil
}

// smallBucket is the size at or below which sortForms hands a bucket to
// the comparison sort: a counting pass over a handful of records costs
// more in set-up than it saves.
const smallBucket = 32

// sortForms returns the source positions of the forms flat[off[i]:off[i+1]]
// (ranks below domain) in the order a stable sort by Compare leaves them.
//
// A range whose forms share their first d ranks is bucketed by its rank
// at depth d: forms that end at d (all equal, so already in place) come
// first, then one bucket per rank. Each pass scatters stably through one
// scratch slice, so every bucket keeps its records in source order, and
// a bucket of more than one record is sorted again at depth d+1. A
// bucket of at most smallBucket records, or of fewer than domain/16 (its
// pass would be dominated by the domain-sized prefix sum), is sorted by
// comparison with the source position as the tie-break, which is what
// stability means here.
//
// The first pass, over every record, runs on the caller's goroutine; the
// buckets it leaves — one per first rank — are then dealt to up to
// workers goroutines, the largest first, each to the least loaded. A
// bucket is sorted within its own range of perm, keys and scratch, with
// the worker's own prefix-sum array, so no two workers touch one slot.
func sortForms(flat []Rank, off []uint32, domain, workers int) []uint32 {
	n := len(off) - 1
	s := &formSort{flat: flat, off: off, domain: domain, perm: make([]uint32, n)}
	for i := range s.perm {
		s.perm[i] = uint32(i)
	}
	if !s.counting(n) {
		// No bucket below the whole can be counted either.
		s.sortByComparison(bucket{0, n, 0})
		return s.perm
	}
	s.keys, s.scratch = make([]uint32, n), make([]uint32, n)
	start := make([]uint32, domain+1)
	top := s.pass(bucket{0, n, 0}, nil, start)
	workers = max(1, min(workers, len(top)))
	if workers == 1 {
		s.run(top, start)
		return s.perm
	}
	slices.SortFunc(top, func(a, b bucket) int { return cmp.Compare(b.hi-b.lo, a.hi-a.lo) })
	shares := make([][]bucket, workers)
	load := make([]int, workers)
	for _, b := range top {
		w := 0
		for v := range load {
			if load[v] < load[w] {
				w = v
			}
		}
		shares[w] = append(shares[w], b)
		load[w] += b.hi - b.lo
	}
	fanout.ForEach(workers, workers, func(w int) error {
		own := start
		if w > 0 {
			own = make([]uint32, domain+1)
		}
		s.run(shares[w], own)
		return nil
	})
	return s.perm
}

// bucket is a range perm[lo:hi] of records whose forms share their first
// depth ranks.
type bucket struct{ lo, hi, depth int }

// formSort is the state of one sortForms call that its workers share;
// each works on disjoint ranges of perm, keys and scratch.
type formSort struct {
	flat   []Rank
	off    []uint32
	domain int
	perm   []uint32
	// keys[i] is perm[i]'s rank at a pass's depth, plus one, or 0 if its
	// form ended; scratch is the pass's scatter target.
	keys, scratch []uint32
}

func (s *formSort) form(p uint32) []Rank { return s.flat[s.off[p]:s.off[p+1]] }

// counting reports whether a bucket of size records is sorted by a
// counting pass rather than by comparison.
func (s *formSort) counting(size int) bool {
	return size > smallBucket && size >= s.domain/16
}

// run sorts the buckets of todo, and the buckets their passes leave,
// with start, a zeroed prefix-sum array of domain+1 slots.
func (s *formSort) run(todo []bucket, start []uint32) {
	for len(todo) > 0 {
		b := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		if !s.counting(b.hi - b.lo) {
			s.sortByComparison(b)
			continue
		}
		todo = s.pass(b, todo, start)
	}
}

// pass buckets b's records by their rank at b.depth, stably, and
// appends to todo every bucket past the ended forms' that holds more
// than one record, to be sorted one rank deeper. start must be zero on
// entry; it is again on return.
func (s *formSort) pass(b bucket, todo []bucket, start []uint32) []bucket {
	part := s.perm[b.lo:b.hi]
	k := s.keys[b.lo:b.hi]
	for i, p := range part {
		k[i] = 0
		if lo, hi := s.off[p], s.off[p+1]; hi-lo > uint32(b.depth) {
			k[i] = s.flat[lo+uint32(b.depth)] + 1
		}
		start[k[i]]++
	}
	// Counts to start offsets.
	sum := uint32(0)
	for key, c := range start {
		if c == 0 {
			continue
		}
		if c > 1 && key > 0 {
			lo := b.lo + int(sum)
			todo = append(todo, bucket{lo, lo + int(c), b.depth + 1})
		}
		start[key] = sum
		sum += c
	}
	out := s.scratch[b.lo:b.hi]
	for i, p := range part {
		out[start[k[i]]] = p
		start[k[i]]++
	}
	copy(part, out)
	for _, key := range k {
		start[key] = 0
	}
	return todo
}

// sortByComparison sorts the source positions of b, whose forms share
// their first b.depth ranks, by Compare on the rest and then by
// position.
func (s *formSort) sortByComparison(b bucket) {
	slices.SortFunc(s.perm[b.lo:b.hi], func(x, y uint32) int {
		if c := Compare(s.form(x)[b.depth:], s.form(y)[b.depth:]); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
}

// NewForms wraps an arena of sequence forms in new-id order: new id i's
// form is flat[off[i-1]:off[i]]. The caller hands both slices over.
func NewForms(flat []Rank, off []uint32) *Forms { return &Forms{flat: flat, off: off} }

// Parts exposes the arena for persistence: the flat ranks and the
// per-record offsets (len = N+1). Callers must not mutate them.
func (f *Forms) Parts() (flat []Rank, off []uint32) { return f.flat, f.off }

// SF returns the sequence form of the record with new id (1-based). The
// slice aliases the arena; callers must not mutate it.
func (f *Forms) SF(newID uint32) []Rank {
	return f.flat[f.off[newID-1]:f.off[newID]]
}

// NewIDMap reconstructs the map from its persisted new-id ->
// source-position permutation, refusing one that is not a permutation.
func NewIDMap(origIndex []uint32) (*IDMap, error) {
	n := len(origIndex)
	newID := make([]uint32, n)
	for idx, src := range origIndex {
		if int(src) >= n || newID[src] != 0 {
			return nil, fmt.Errorf("sequence: origIndex is not a permutation at %d", idx)
		}
		newID[src] = uint32(idx + 1)
	}
	return &IDMap{origIndex: origIndex, newID: newID}, nil
}

// Perm exposes the new-id -> source-position permutation for
// persistence. Callers must not mutate it.
func (m *IDMap) Perm() []uint32 { return m.origIndex }

// Len returns the number of records.
func (m *IDMap) Len() int { return len(m.origIndex) }

// OrigIndex maps a new id to the record's 0-based position in the source
// dataset.
func (m *IDMap) OrigIndex(newID uint32) int { return int(m.origIndex[newID-1]) }

// NewID maps a 0-based source position to the record's new id. This is
// the paper's "reassignment map" whose space cost §5 accounts for.
func (m *IDMap) NewID(srcIndex int) uint32 { return m.newID[srcIndex] }

// MapBytes reports the reassignment map footprint (new id <-> original
// position, 8 bytes per record).
func (m *IDMap) MapBytes() int64 {
	return int64(len(m.origIndex))*4 + int64(len(m.newID))*4
}
