package sequence

import (
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
	sfAt := func(i int) []Rank { return srcFlat[srcOff[i]:srcOff[i+1]] }

	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	slices.SortStableFunc(perm, func(a, b uint32) int {
		return Compare(sfAt(int(a)), sfAt(int(b)))
	})

	r := &Reordered{
		flat:      make([]Rank, 0, total),
		off:       make([]uint32, 1, n+1),
		origIndex: perm,
		newID:     make([]uint32, n),
	}
	for newIdx, src := range perm {
		r.flat = append(r.flat, sfAt(int(src))...)
		r.off = append(r.off, uint32(len(r.flat)))
		r.newID[src] = uint32(newIdx + 1)
	}
	return r, nil
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
