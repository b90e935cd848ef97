// Package invfile implements the paper's baseline: the classic inverted
// file (IF) over set-valued records, in the most efficient reported
// physical scheme (§5): one contiguous compressed list per item, a
// memory-resident vocabulary, postings of (record id, record length)
// compressed with d-gaps + v-byte. Query evaluation follows §2: subset =
// intersection of whole lists, equality = intersection with a length
// filter, superset = union with occurrence counting against the length.
//
// The defining cost property: the IF always reads each involved list in
// full ("Berkeley DB always retrieves the whole tuple"), so its I/O grows
// with list length — the weakness the OIF attacks.
package invfile

import (
	"slices"
	"sort"

	"repro/internal/dataset"
	"repro/internal/liststore"
	"repro/internal/overlay"
	"repro/internal/storage"
	"repro/internal/vbyte"
)

// Index is a built inverted file. It additionally supports the batch
// update scheme of §4.4: inserts and tombstones accumulate in the
// overlay (internal/overlay) that queries consult, until MergeDelta
// folds them into the disk lists.
type Index struct {
	store      *liststore.Store
	domainSize int
	numRecords int
	emptyIDs   []uint32 // ids of empty-set records (not representable in lists)
	lastID     []uint32 // per item: last record id in its disk list
	counts     []int64  // per item: postings in its disk list

	ov overlay.Overlay // pending delta + tombstones; delta ids continue the main sequence
}

// BuildOptions configures Build.
type BuildOptions struct {
	// PageSize for the list file; 0 selects storage.DefaultPageSize.
	PageSize int
}

func (o *BuildOptions) fill() {
	if o.PageSize <= 0 {
		o.PageSize = storage.DefaultPageSize
	}
}

// Build constructs the inverted file for d.
func Build(d *dataset.Dataset, opts BuildOptions) (*Index, error) {
	opts.fill()
	pool := storage.NewBufferPool(storage.NewMemPager(opts.PageSize), storage.DefaultPoolPages)
	domain := d.DomainSize()
	store, err := liststore.New(pool, domain)
	if err != nil {
		return nil, err
	}
	ix := &Index{
		store:      store,
		domainSize: domain,
		numRecords: d.Len(),
		lastID:     make([]uint32, domain),
		counts:     make([]int64, domain),
	}
	// Encode each list incrementally to avoid materialising postings.
	bufs := make([][]byte, domain)
	for _, r := range d.Records() {
		if len(r.Set) == 0 {
			ix.emptyIDs = append(ix.emptyIDs, r.ID)
			continue
		}
		for _, it := range r.Set {
			bufs[it] = vbyte.AppendUint32(bufs[it], r.ID-ix.lastID[it])
			bufs[it] = vbyte.AppendUint32(bufs[it], uint32(len(r.Set)))
			ix.lastID[it] = r.ID
			ix.counts[it]++
		}
	}
	w, err := store.NewWriter()
	if err != nil {
		return nil, err
	}
	for item := 0; item < domain; item++ {
		if err := w.WriteList(uint32(item), bufs[item]); err != nil {
			return nil, err
		}
		bufs[item] = nil
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return ix, nil
}

// SetPool swaps the measurement buffer pool (same pager).
func (ix *Index) SetPool(pool *storage.BufferPool) error { return ix.store.SetPool(pool) }

// Pool returns the current buffer pool.
func (ix *Index) Pool() *storage.BufferPool { return ix.store.Pool() }

// NumRecords returns the number of indexed records including the delta.
func (ix *Index) NumRecords() int { return ix.numRecords + ix.ov.Len() }

// DomainSize returns |I|.
func (ix *Index) DomainSize() int { return ix.domainSize }

// ListBytes returns the total compressed size of the disk lists.
func (ix *Index) ListBytes() int64 { return ix.store.TotalBytes() }

// ListPages returns the pages occupied by the disk lists.
func (ix *Index) ListPages() int64 { return ix.store.TotalPages() }

// ItemSupports returns the per-item support table of the merged index:
// index = item id, value = postings in the item's disk list. Pending
// delta inserts and tombstones are not reflected — the table is a
// planning estimate, refreshed by MergeDelta, not an answer.
func (ix *Index) ItemSupports() []int64 {
	return append([]int64(nil), ix.counts...)
}

// Subset returns ids of records containing every item of qs, ascending.
func (ix *Index) Subset(qs []dataset.Item) ([]uint32, error) {
	q, err := dataset.Canonical(qs, ix.domainSize)
	if err != nil {
		return nil, err
	}
	if len(q) == 0 {
		return ix.finish(ix.allIDs(), q, overlay.ContainsAll), nil
	}
	lists, err := ix.readAll(q)
	if err != nil {
		return nil, err
	}
	return ix.finish(intersectLists(lists, 0), q, overlay.ContainsAll), nil
}

// Equality returns ids of records whose set equals qs, ascending.
func (ix *Index) Equality(qs []dataset.Item) ([]uint32, error) {
	q, err := dataset.Canonical(qs, ix.domainSize)
	if err != nil {
		return nil, err
	}
	if len(q) == 0 {
		out := append([]uint32(nil), ix.emptyIDs...)
		return ix.finish(out, q, overlay.Equal), nil
	}
	lists, err := ix.readAll(q)
	if err != nil {
		return nil, err
	}
	return ix.finish(intersectLists(lists, uint32(len(q))), q, overlay.Equal), nil
}

// Superset returns ids of records whose set is contained in qs, ascending.
func (ix *Index) Superset(qs []dataset.Item) ([]uint32, error) {
	q, err := dataset.Canonical(qs, ix.domainSize)
	if err != nil {
		return nil, err
	}
	lists, err := ix.readAll(q)
	if err != nil {
		return nil, err
	}
	// Union with occurrence counting (§2); the empty-set records qualify
	// outright and interleave with the list-derived ids.
	results := vbyte.AppendCovered(slices.Clone(ix.emptyIDs), lists)
	slices.Sort(results)
	return ix.finish(results, q, overlay.SubsetOf), nil
}

// readAll fetches and decodes the whole disk list of every item of q —
// the IF's defining cost: each involved list is read in full.
func (ix *Index) readAll(q []dataset.Item) ([][]vbyte.Posting, error) {
	lists := make([][]vbyte.Posting, len(q))
	for i, it := range q {
		raw, err := ix.store.ReadList(uint32(it))
		if err != nil {
			return nil, err
		}
		lists[i], err = vbyte.DecodePostings(raw, 0, make([]vbyte.Posting, 0, ix.counts[it]))
		if err != nil {
			return nil, err
		}
	}
	return lists, nil
}

// intersectLists returns the ids present in every list, intersecting
// smallest-first to shrink the candidates early. A non-zero length keeps
// only records of that cardinality — equality's length filter (§2).
func intersectLists(lists [][]vbyte.Posting, length uint32) []uint32 {
	sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
	cands := make([]uint32, 0, len(lists[0]))
	for _, p := range lists[0] {
		if length == 0 || p.Length == length {
			cands = append(cands, p.ID)
		}
	}
	for _, l := range lists[1:] {
		if len(cands) == 0 {
			break
		}
		cands = intersectIDs(cands, l)
	}
	return cands
}

func intersectIDs(cands []uint32, l []vbyte.Posting) []uint32 {
	out := cands[:0]
	i, j := 0, 0
	for i < len(cands) && j < len(l) {
		switch {
		case cands[i] < l[j].ID:
			i++
		case cands[i] > l[j].ID:
			j++
		default:
			out = append(out, cands[i])
			i++
			j++
		}
	}
	return out
}

func (ix *Index) allIDs() []uint32 {
	out := make([]uint32, 0, ix.numRecords)
	for id := uint32(1); id <= uint32(ix.numRecords); id++ {
		out = append(out, id)
	}
	return out
}

// Updates (§4.4) ------------------------------------------------------

// finish completes an answer: it masks tombstoned ids out of the
// disk-side results, then appends matching delta-record ids (both
// ascending; delta ids are all larger than disk ids).
func (ix *Index) finish(ids []uint32, q []dataset.Item, pred overlay.Pred) []uint32 {
	return ix.ov.AppendMatches(ix.ov.Mask(ids), q, pred)
}

// Insert adds a record to the memory-resident delta (§4.4) and returns
// its id. The set is copied, sorted, and deduplicated.
func (ix *Index) Insert(set []dataset.Item) (uint32, error) {
	return ix.ov.Insert(set, ix.domainSize, ix.numRecords)
}

// DeltaLen returns the number of unmerged inserted records.
func (ix *Index) DeltaLen() int { return ix.ov.Len() }

// Deleted returns the number of tombstoned records.
func (ix *Index) Deleted() int { return ix.ov.Deleted() }

// Delete tombstones the record with the given id, merged or pending; see
// overlay.Overlay.Delete.
func (ix *Index) Delete(id uint32) error { return ix.ov.Delete(id, ix.numRecords) }

// MergeDelta folds the delta into the disk lists: each list is read once,
// the new postings are appended (ids are monotonically larger, so this is
// a byte-level append after re-basing the first d-gap), and the lists are
// rewritten into a fresh pager. This is the IF's cheap batch update path:
// no global re-sort is needed, which is exactly why the paper reports IF
// updates ~3–5x faster than OIF's (§4.4). When deletions are pending,
// each list is additionally decoded and its tombstoned postings dropped
// before the rewrite, so the disk lists physically shrink; tombstoned
// ids stay masked afterwards (the slots are never reused).
// Every derived structure — the new store, the per-item counters, the
// empty-id list — is staged in fresh storage and installed only after
// the whole rewrite succeeded: a mid-merge failure leaves the index
// exactly as it was, and live Reader clones (which share the previous
// counts/lastID/emptyIDs backing arrays) never observe a write.
func (ix *Index) MergeDelta() error {
	dirty := ix.ov.Dirty()
	if ix.ov.Len() == 0 && !dirty {
		return nil
	}
	oldPool := ix.store.Pool()
	pageSize := oldPool.PageSize()
	newPool := storage.NewBufferPool(storage.NewMemPager(pageSize), storage.DefaultPoolPages)
	newStore, err := liststore.New(newPool, ix.domainSize)
	if err != nil {
		return err
	}
	lastID := append([]uint32(nil), ix.lastID...)
	counts := append([]int64(nil), ix.counts...)
	// Group delta postings per item, skipping tombstoned delta records
	// (their id slots are preserved by the numRecords advance below).
	extra := make([][]vbyte.Posting, ix.domainSize)
	emptyIDs := make([]uint32, 0, len(ix.emptyIDs))
	for _, id := range ix.emptyIDs {
		if !ix.ov.Dead(id) {
			emptyIDs = append(emptyIDs, id)
		}
	}
	for _, r := range ix.ov.Pending() {
		if ix.ov.Dead(r.ID) {
			continue
		}
		if len(r.Set) == 0 {
			emptyIDs = append(emptyIDs, r.ID)
			continue
		}
		for _, it := range r.Set {
			extra[it] = append(extra[it], vbyte.Posting{ID: r.ID, Length: uint32(len(r.Set))})
		}
	}
	w, err := newStore.NewWriter()
	if err != nil {
		return err
	}
	for item := 0; item < ix.domainSize; item++ {
		raw, err := ix.store.ReadList(uint32(item))
		if err != nil {
			return err
		}
		if dirty && len(raw) > 0 {
			ps, err := vbyte.DecodePostings(raw, 0, make([]vbyte.Posting, 0, counts[item]))
			if err != nil {
				return err
			}
			kept := ps[:0]
			for _, p := range ps {
				if !ix.ov.Dead(p.ID) {
					kept = append(kept, p)
				}
			}
			if len(kept) != len(ps) {
				raw, err = vbyte.AppendPostings(nil, kept, 0)
				if err != nil {
					return err
				}
				counts[item] = int64(len(kept))
				if len(kept) > 0 {
					lastID[item] = kept[len(kept)-1].ID
				} else {
					lastID[item] = 0
				}
			}
		}
		if len(extra[item]) > 0 {
			raw, err = vbyte.AppendPostings(raw, extra[item], lastID[item])
			if err != nil {
				return err
			}
			lastID[item] = extra[item][len(extra[item])-1].ID
			counts[item] += int64(len(extra[item]))
		}
		if err := w.WriteList(uint32(item), raw); err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	ix.numRecords += ix.ov.Len()
	ix.ov.Merged()
	ix.emptyIDs = emptyIDs
	ix.lastID = lastID
	ix.counts = counts
	ix.store = newStore
	return nil
}

// NewReader returns an independent query handle over the same lists with
// its own buffer pool; see core.Index.NewReader for the concurrency
// contract (the delta is frozen at its current extent).
func (ix *Index) NewReader(poolPages int) (*Reader, error) {
	pool := storage.NewBufferPool(ix.store.Pool().Pager(), poolPages)
	view, err := ix.store.View(pool)
	if err != nil {
		return nil, err
	}
	clone := *ix
	clone.store = view
	clone.ov = ix.ov.View()
	return &Reader{ix: &clone, pool: pool}, nil
}

// Reader is an isolated query handle produced by NewReader.
type Reader struct {
	ix   *Index
	pool *storage.BufferPool
}

// Subset answers like Index.Subset.
func (r *Reader) Subset(qs []dataset.Item) ([]uint32, error) { return r.ix.Subset(qs) }

// Equality answers like Index.Equality.
func (r *Reader) Equality(qs []dataset.Item) ([]uint32, error) { return r.ix.Equality(qs) }

// Superset answers like Index.Superset.
func (r *Reader) Superset(qs []dataset.Item) ([]uint32, error) { return r.ix.Superset(qs) }

// Stats returns this reader's private access statistics.
func (r *Reader) Stats() storage.AccessStats { return r.pool.Stats() }

// ResetStats zeroes this reader's statistics.
func (r *Reader) ResetStats() { r.pool.ResetStats() }

// Pool returns the reader's private buffer pool.
func (r *Reader) Pool() *storage.BufferPool { return r.pool }
