// Package overlay is the §4.4 update overlay both updatable indexes
// (the OIF of internal/core, the inverted file of internal/invfile) lay
// over their disk structures: the memory-resident delta of records
// inserted since the last batch merge, and the tombstone set masking
// deleted ids. How pending records and tombstones are held,
// canonicalised, matched against a query, masked out of disk-side
// answers, frozen for a parallel reader and serialised is decided here
// once; the indexes differ only in their MergeDelta — a full re-sort
// for the OIF, a list append for the IF, which is the 3-5x update-cost
// gap the paper reports.
//
// The delta is a linear record scan paid by every query while inserts
// are pending, not the memory-resident inverted file the paper sketches;
// making it sublinear is a change to this package alone.
package overlay

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/dataset"
	"repro/internal/snapio"
)

// Pred is the relation a pending record must have to the query set.
type Pred int

const (
	ContainsAll Pred = iota // record ⊇ query (subset queries)
	Equal                   // record = query
	SubsetOf                // record ⊆ query (superset queries)
)

// Overlay holds one index's unmerged updates; the zero value is empty.
// Ids live in the index's original-id space: the i-th pending record
// carries id merged+i+1, where merged — the number of records in the
// disk structures — is passed in by the index rather than kept twice.
//
// An Overlay belongs to one writer. View gives a parallel reader a copy
// that later Inserts and Deletes never disturb: pending is append-only
// between merges, and Delete replaces the tombstone slice instead of
// editing it.
type Overlay struct {
	pending []dataset.Record // the delta, ids ascending
	dead    []uint32         // tombstoned ids, sorted; immutable once attached
	// dirty records that some tombstoned postings are still physically
	// present (on disk or in pending) for the next merge to fold out.
	// The ids themselves stay tombstoned forever: ids are never reused.
	dirty bool
}

// Insert canonicalises set (dataset.Canonical), appends it to the delta
// and returns its id, the next after the merged and pending records.
func (o *Overlay) Insert(set []dataset.Item, domainSize, merged int) (uint32, error) {
	cp, err := dataset.Canonical(set, domainSize)
	if err != nil {
		return 0, err
	}
	id := uint32(merged + len(o.pending) + 1)
	o.pending = append(o.pending, dataset.Record{ID: id, Set: cp})
	return id, nil
}

// Delete tombstones id, merged or pending: it vanishes from every answer
// at once, the next merge removes its postings, and the id is never
// handed out again. An unknown or already-deleted id is an error.
func (o *Overlay) Delete(id uint32, merged int) error {
	if n := merged + len(o.pending); id == 0 || int(id) > n {
		return fmt.Errorf("overlay: delete of unknown record %d (have %d)", id, n)
	}
	i, found := slices.BinarySearch(o.dead, id)
	if found {
		return fmt.Errorf("overlay: record %d already deleted", id)
	}
	// Copy-on-write keeps the slice immutable for live views.
	dead := make([]uint32, 0, len(o.dead)+1)
	o.dead = append(append(append(dead, o.dead[:i]...), id), o.dead[i:]...)
	o.dirty = true
	return nil
}

// Dead reports whether id is tombstoned.
func (o *Overlay) Dead(id uint32) bool {
	if len(o.dead) == 0 {
		return false
	}
	_, ok := slices.BinarySearch(o.dead, id)
	return ok
}

// Deleted returns the number of tombstoned ids.
func (o *Overlay) Deleted() int { return len(o.dead) }

// Len returns the number of pending records, tombstoned ones included
// (they keep their id slots).
func (o *Overlay) Len() int { return len(o.pending) }

// Pending returns the delta for a merge to fold in; read-only. The
// merge skips or blanks the records Dead reports.
func (o *Overlay) Pending() []dataset.Record { return o.pending }

// Dirty reports whether a merge has tombstoned postings to fold out.
func (o *Overlay) Dirty() bool { return o.dirty }

// AppendMatches appends, ascending, the ids of the live pending records
// related by pred to the canonical query set q.
func (o *Overlay) AppendMatches(dst []uint32, q []dataset.Item, pred Pred) []uint32 {
	for _, r := range o.pending {
		if o.Dead(r.ID) {
			continue
		}
		var ok bool
		switch pred {
		case ContainsAll:
			ok = r.ContainsAll(q)
		case Equal:
			ok = r.EqualSet(q)
		default:
			ok = r.SubsetOf(q)
		}
		if ok {
			dst = append(dst, r.ID)
		}
	}
	return dst
}

// AppendMatchesWithin is AppendMatches(ContainsAll) restricted to the
// ids present in cands (sorted ascending) — the delta half of a
// candidate-restricted subset probe.
func (o *Overlay) AppendMatchesWithin(dst []uint32, q []dataset.Item, cands []uint32) []uint32 {
	for _, r := range o.pending {
		if o.Dead(r.ID) || !r.ContainsAll(q) {
			continue
		}
		if _, ok := slices.BinarySearch(cands, r.ID); ok {
			dst = append(dst, r.ID)
		}
	}
	return dst
}

// NextContaining resumes a lazy ContainsAll sweep at pending position
// from: it returns the id of the first live record there or later that
// contains q, and the position to resume from; ok is false once the
// delta is exhausted. A cursor that stops early pays only for the
// records it visited.
func (o *Overlay) NextContaining(from int, q []dataset.Item) (id uint32, next int, ok bool) {
	for i := from; i < len(o.pending); i++ {
		if r := o.pending[i]; !o.Dead(r.ID) && r.ContainsAll(q) {
			return r.ID, i + 1, true
		}
	}
	return 0, len(o.pending), false
}

// Mask drops the tombstoned ids from ids in place and returns the kept
// prefix. With no tombstones it is a length test the caller inlines.
func (o *Overlay) Mask(ids []uint32) []uint32 {
	if len(o.dead) == 0 {
		return ids
	}
	return o.mask(ids)
}

func (o *Overlay) mask(ids []uint32) []uint32 {
	kept := ids[:0]
	for _, id := range ids {
		if !o.Dead(id) {
			kept = append(kept, id)
		}
	}
	return kept
}

// View returns the overlay frozen at its current extent, for a reader
// running in parallel with the writer. The capacity cap makes an append
// through the view reallocate instead of writing into shared storage.
func (o *Overlay) View() Overlay {
	v := *o
	v.pending = o.pending[:len(o.pending):len(o.pending)]
	return v
}

// Merged resets the overlay after a batch merge folded every pending
// record and every tombstoned posting into the disk structures. The
// tombstones stay: they mask the id slots the merge left empty.
func (o *Overlay) Merged() { o.pending, o.dirty = nil, false }

// WriteRecords writes the pending-records snapshot section: a u64 count,
// then each record's id and length-prefixed item set.
func (o *Overlay) WriteRecords(w io.Writer) error {
	if err := snapio.WriteU64(w, uint64(len(o.pending))); err != nil {
		return err
	}
	for _, r := range o.pending {
		if err := snapio.WriteU32(w, r.ID); err != nil {
			return err
		}
		if err := snapio.WriteU32Slice(w, r.Set); err != nil {
			return err
		}
	}
	return nil
}

// ReadRecords replaces the delta with a section written by WriteRecords.
func (o *Overlay) ReadRecords(r io.Reader) error {
	n, err := snapio.ReadU64(r)
	if err != nil {
		return err
	}
	if n > snapio.MaxSliceLen {
		return fmt.Errorf("overlay: %d pending records exceeds bound", n)
	}
	// The count is untrusted until the stream's CRC is verified: reserve
	// a bounded amount and let real records grow the slice.
	o.pending = make([]dataset.Record, 0, min(n, 1<<16))
	for ; n > 0; n-- {
		id, err := snapio.ReadU32(r)
		if err != nil {
			return err
		}
		set, err := snapio.ReadU32Slice(r)
		if err != nil {
			return err
		}
		o.pending = append(o.pending, dataset.Record{ID: id, Set: set})
	}
	return nil
}

// WriteTombstones writes the tombstone snapshot section. The dirty flag
// travels in the format's own header word (see Dirty), because each
// snapshot format fixes its header before its sections.
func (o *Overlay) WriteTombstones(w io.Writer) error { return snapio.WriteU32Slice(w, o.dead) }

// ReadTombstones replaces the tombstone set with a section written by
// WriteTombstones, and sets the dirty flag the header carried.
func (o *Overlay) ReadTombstones(r io.Reader, dirty bool) error {
	dead, err := snapio.ReadU32Slice(r)
	if err != nil {
		return err
	}
	o.dead, o.dirty = dead, dirty
	return nil
}
