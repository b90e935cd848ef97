package core

import "repro/internal/dataset"

// Updates (§4.4). New records and tombstones accumulate in the index's
// overlay (internal/overlay), which queries consult alongside the disk
// index; MergeDelta folds them in. Unlike the IF — which merely appends
// postings — the OIF must re-sort the whole database to assign fresh
// ids, which is why the paper reports OIF updates costing ~3-5x an IF
// update. MergeDelta therefore performs a full rebuild from the records
// the index holds — their sequence forms rebuilt from the lists and the
// metadata table (forms.go) — plus the delta.

// Insert adds a record to the delta and returns its (original-space) id.
func (ix *Index) Insert(set []dataset.Item) (uint32, error) {
	return ix.ov.Insert(set, ix.domainSize, ix.numRecords)
}

// DeltaLen returns the number of unmerged inserted records.
func (ix *Index) DeltaLen() int { return ix.ov.Len() }

// Delete tombstones the record with the given original-space id, merged
// or pending; see overlay.Overlay.Delete.
func (ix *Index) Delete(id uint32) error { return ix.ov.Delete(id, ix.numRecords) }

// Deleted returns the number of tombstoned records.
func (ix *Index) Deleted() int { return ix.ov.Deleted() }

// MergeDelta rebuilds the index over the union of the indexed records and
// the delta: supports are recounted (the order may shift), records are
// re-sorted, ids reassigned, blocks and metadata rebuilt — the full §4.4
// OIF update cost. Tombstoned records participate as empty sets, so
// their postings disappear from every list while every surviving record
// keeps its id; the tombstone set itself carries over (masking the empty
// slots).
func (ix *Index) MergeDelta() error {
	if ix.ov.Len() == 0 && !ix.ov.Dirty() {
		return nil
	}
	// Reconstruct the source dataset in original-id order from the
	// sequence forms, rebuilt from the lists on one worker (like the
	// rebuild below, beside the readers the index serves), then append
	// the delta; dead records contribute empty sets, which keeps every
	// id slot in place.
	forms, err := ix.forms()
	if err != nil {
		return err
	}
	d := dataset.New(ix.domainSize)
	flat, _ := forms.Parts()
	items := len(flat)
	for _, r := range ix.ov.Pending() {
		items += len(r.Set)
	}
	d.Grow(ix.numRecords+ix.ov.Len(), items)
	var set []dataset.Item // Add copies, so one buffer serves every record
	for i := 0; i < ix.numRecords; i++ {
		set = set[:0]
		if !ix.ov.Dead(uint32(i) + 1) {
			set = ix.ord.AppendSet(set, forms.SF(ix.ids.NewID(i)))
		}
		if _, err := d.Add(set); err != nil {
			return err
		}
	}
	for _, r := range ix.ov.Pending() {
		set := r.Set
		if ix.ov.Dead(r.ID) {
			set = nil
		}
		if _, err := d.Add(set); err != nil {
			return err
		}
	}
	rebuilt, err := buildOn(d, ix.opts, 1)
	if err != nil {
		return err
	}
	rebuilt.ov = ix.ov
	rebuilt.ov.Merged()
	rebuilt.snapReserved = ix.snapReserved
	*ix = *rebuilt
	return nil
}
