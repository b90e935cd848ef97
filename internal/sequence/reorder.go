package sequence

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/dataset"
)

// Reordered is the outcome of the paper's global record re-ordering (§3):
// records sorted lexicographically by sequence form with new dense ids
// 1..N assigned in that order, so that id order equals sf order. Sequence
// forms are stored in a flat arena to stay compact at millions of records.
type Reordered struct {
	flat []Rank   // all sequence forms, concatenated in new-id order
	off  []uint32 // off[i]..off[i+1] delimits new id i+1's sf; len = N+1

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
func Reorder(d *dataset.Dataset, ord *Order) (*Reordered, error) {
	n := d.Len()
	// Build all sequence forms into a flat arena first (source order).
	var total int
	for i := 0; i < n; i++ {
		total += len(d.Record(i).Set)
	}
	srcFlat := make([]Rank, 0, total)
	srcOff := make([]uint32, n+1)
	for i := 0; i < n; i++ {
		set := d.Record(i).Set
		start := len(srcFlat)
		for _, it := range set {
			r, err := ord.Rank(it)
			if err != nil {
				return nil, err
			}
			srcFlat = append(srcFlat, r)
		}
		slices.Sort(srcFlat[start:])
		srcOff[i+1] = uint32(len(srcFlat))
	}

	perm := sortForms(srcFlat, srcOff, ord.DomainSize())
	r := &Reordered{
		flat:      make([]Rank, 0, total),
		off:       make([]uint32, 1, n+1),
		origIndex: perm,
		newID:     make([]uint32, n),
	}
	for newIdx, src := range perm {
		r.flat = append(r.flat, srcFlat[srcOff[src]:srcOff[src+1]]...)
		r.off = append(r.off, uint32(len(r.flat)))
		r.newID[src] = uint32(newIdx + 1)
	}
	return r, nil
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
func sortForms(flat []Rank, off []uint32, domain int) []uint32 {
	n := len(off) - 1
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	form := func(p uint32) []Rank { return flat[off[p]:off[p+1]] }
	counting := func(size int) bool {
		return size > smallBucket && size >= domain/16
	}
	if !counting(n) {
		// No bucket below the whole can be counted either.
		sortByComparison(perm, form, 0)
		return perm
	}

	type bucket struct{ lo, hi, depth int }
	var (
		keys    = make([]uint32, n) // keys[i]: perm[i]'s rank at depth + 1, 0 if it ended
		scratch = make([]uint32, n)
		start   = make([]uint32, domain+1)
		todo    = []bucket{{0, n, 0}}
	)
	for len(todo) > 0 {
		b := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		part := perm[b.lo:b.hi]
		if !counting(len(part)) {
			sortByComparison(part, form, b.depth)
			continue
		}
		k := keys[b.lo:b.hi]
		for i, p := range part {
			k[i] = 0
			if lo, hi := off[p], off[p+1]; hi-lo > uint32(b.depth) {
				k[i] = flat[lo+uint32(b.depth)] + 1
			}
			start[k[i]]++
		}
		// Counts to start offsets; every bucket past the ended forms'
		// that holds more than one record is sorted one rank deeper.
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
		out := scratch[:len(part)]
		for i, p := range part {
			out[start[k[i]]] = p
			start[k[i]]++
		}
		copy(part, out)
		for _, key := range k {
			start[key] = 0
		}
	}
	return perm
}

// sortByComparison sorts source positions whose forms share their first
// depth ranks, by Compare on the rest and then by position.
func sortByComparison(part []uint32, form func(uint32) []Rank, depth int) {
	slices.SortFunc(part, func(a, b uint32) int {
		if c := Compare(form(a)[depth:], form(b)[depth:]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}

// Parts exposes the raw components for persistence: the flat rank arena,
// the per-record offsets (len = N+1), and the new-id -> source-position
// permutation. Callers must not mutate them.
func (r *Reordered) Parts() (flat []Rank, off []uint32, origIndex []uint32) {
	return r.flat, r.off, r.origIndex
}

// ReorderedFromParts reconstructs a Reordered from persisted components,
// validating shape: off must be monotonically non-decreasing starting at
// 0 and ending at len(flat); origIndex must be a permutation.
func ReorderedFromParts(flat []Rank, off []uint32, origIndex []uint32) (*Reordered, error) {
	n := len(origIndex)
	if len(off) != n+1 {
		return nil, fmt.Errorf("sequence: %d offsets for %d records", len(off), n)
	}
	if off[0] != 0 || int(off[n]) != len(flat) {
		return nil, fmt.Errorf("sequence: offsets do not span the arena")
	}
	for i := 1; i <= n; i++ {
		if off[i] < off[i-1] {
			return nil, fmt.Errorf("sequence: offsets decrease at %d", i)
		}
	}
	newID := make([]uint32, n)
	seen := make([]bool, n)
	for idx, src := range origIndex {
		if int(src) >= n || seen[src] {
			return nil, fmt.Errorf("sequence: origIndex is not a permutation at %d", idx)
		}
		seen[src] = true
		newID[src] = uint32(idx + 1)
	}
	return &Reordered{flat: flat, off: off, origIndex: origIndex, newID: newID}, nil
}

// Len returns the number of records.
func (r *Reordered) Len() int { return len(r.origIndex) }

// SF returns the sequence form of the record with new id (1-based). The
// slice aliases the arena; callers must not mutate it.
func (r *Reordered) SF(newID uint32) []Rank {
	return r.flat[r.off[newID-1]:r.off[newID]]
}

// OrigIndex maps a new id to the record's 0-based position in the source
// dataset.
func (r *Reordered) OrigIndex(newID uint32) int { return int(r.origIndex[newID-1]) }

// NewID maps a 0-based source position to the record's new id. This is
// the paper's "reassignment map" whose space cost §5 accounts for.
func (r *Reordered) NewID(srcIndex int) uint32 { return r.newID[srcIndex] }

// MapBytes reports the reassignment map footprint (new id <-> original
// position, 8 bytes per record).
func (r *Reordered) MapBytes() int64 {
	return int64(len(r.origIndex))*4 + int64(len(r.newID))*4
}
