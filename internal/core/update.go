package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/dataset"
	"repro/internal/sequence"
)

// Updates (§4.4). New records and tombstones accumulate in the index's
// overlay (internal/overlay), which queries consult alongside the disk
// index; MergeDelta folds them in. Unlike the IF — which merely appends
// postings — the OIF must re-sort the whole database to assign fresh
// ids, which is why the paper reports OIF updates costing ~3-5x an IF
// update. MergeDelta therefore performs a full rebuild: it reads the
// records back from the lists and the metadata table once (scanLists,
// forms.go), into an arena beside the delta, and re-sorts that.

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
// slots). It runs on one worker, beside the readers the index serves
// (ROADMAP item 6), and reads the index's pages through scratch pools.
// A merge that fails leaves the index as it was.
func (ix *Index) MergeDelta() error {
	if ix.ov.Len() == 0 && !ix.ov.Dirty() {
		return nil
	}
	p, err := scanLists(ix.tree, ix.meta, ix.numRecords, ix.listPostings, 1, true)
	if err != nil {
		return fmt.Errorf("core: merging: reading the lists: %w", err)
	}
	flat, off, support, err := ix.mergedItems(p)
	if err != nil {
		return err
	}
	ord := sequence.NewOrder(support)
	re, err := sequence.ReorderItems(flat, off, ord, 1)
	if err != nil {
		return err
	}
	rebuilt, err := build(len(off)-1, ix.domainSize, ord, re.Forms, re.IDMap, ix.opts, 1)
	if err != nil {
		return err
	}
	rebuilt.ov = ix.ov
	rebuilt.ov.Merged()
	rebuilt.snapReserved = ix.snapReserved
	*ix = *rebuilt
	return nil
}

// mergedItems writes the collection a merge folds in into one arena in
// original-id order — id i's set is flat[off[i-1]:off[i]]: the indexed
// records, read from p and the metadata table, then the pending sets, a
// tombstoned record empty in its slot — and counts each item's support
// on the way. The records' items land in no particular order.
//
// p.lens, indexed by new id, becomes each live record's write cursor:
// the offset of its next item. A dead record's is deadSlot, and its
// postings are skipped. Like a Dataset, the arena refuses to pass 2³²−1
// items.
func (ix *Index) mergedItems(p *postings) (flat []dataset.Item, off []uint32, support []int64, err error) {
	const deadSlot = math.MaxUint32
	n, pending := ix.numRecords, ix.ov.Pending()
	off = make([]uint32, n+len(pending)+1)
	next := p.lens
	for i := range n {
		id := ix.ids.NewID(i)
		off[i+1], next[id] = off[i]+next[id], off[i]
		if ix.ov.Dead(uint32(i) + 1) {
			off[i+1], next[id] = off[i], deadSlot
		}
	}
	for j, r := range pending {
		off[n+j+1] = off[n+j]
		if !ix.ov.Dead(r.ID) {
			off[n+j+1] += uint32(len(r.Set))
		}
	}
	if !slices.IsSorted(off) { // a sum wrapped
		return nil, nil, nil, fmt.Errorf("core: merging: more than %d items", uint32(math.MaxUint32))
	}
	flat = make([]dataset.Item, off[len(off)-1])
	support = make([]int64, ix.domainSize)
	put := func(id uint32, it dataset.Item) {
		if at := next[id]; at != deadSlot {
			flat[at] = it
			next[id]++
			support[it]++
		}
	}
	// Each record's smallest rank is its region (Theorem 1), each of its
	// others a posting.
	for r, reg := range ix.meta.Regions {
		if reg.Empty() {
			continue
		}
		it := ix.ord.Item(sequence.Rank(r))
		for id := reg.L; id <= reg.U; id++ {
			put(id, it)
		}
	}
	for _, l := range p.lists {
		it := ix.ord.Item(l.rank)
		for _, id := range l.ids {
			put(id, it)
		}
	}
	for j, r := range pending {
		if !ix.ov.Dead(r.ID) {
			copy(flat[off[n+j]:], r.Set)
			for _, it := range r.Set {
				support[it]++
			}
		}
	}
	return flat, off, support, nil
}
