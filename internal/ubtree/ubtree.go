// Package ubtree implements the ablation baseline of §5 ("Impact of the
// OIF ordering"): the inverted lists are cut into blocks indexed by a
// B-tree exactly as in the OIF — same block size — but records keep their
// original ids (no global ordering), keys carry only (item, lastRecordID)
// (no tags), and there is no metadata table. It isolates how much of the
// OIF's win comes from the ordering + metadata rather than from merely
// indexing the lists: the unordered tree still supports id-directed skips
// during intersections, but has no RoI, so initial scans read whole lists.
package ubtree

import (
	"encoding/binary"
	"slices"
	"sort"

	"repro/internal/btree"
	"repro/internal/dataset"
	"repro/internal/storage"
	"repro/internal/vbyte"
)

// Options configures Build. Use the same BlockPostings as the OIF under
// comparison (the paper: "exactly in the same way we created the OIF
// (same block size)").
type Options struct {
	PageSize      int
	BlockPostings int
}

func (o *Options) fill() {
	if o.PageSize <= 0 {
		o.PageSize = storage.DefaultPageSize
	}
	if o.BlockPostings <= 0 {
		o.BlockPostings = 64
	}
}

// Index is a built unordered B-tree index.
type Index struct {
	tree       *btree.BTree
	domainSize int
	numRecords int
	counts     []int64  // postings per item
	emptyIDs   []uint32 // empty-set records (not representable in lists)
	blocks     int64
}

// blockKey is item (4 bytes BE) then last record id (4 bytes BE); plain
// bytewise order works because keys are fixed width.
func blockKey(item dataset.Item, lastID uint32) []byte {
	k := make([]byte, 8)
	binary.BigEndian.PutUint32(k, item)
	binary.BigEndian.PutUint32(k[4:], lastID)
	return k
}

func keyItem(k []byte) dataset.Item { return binary.BigEndian.Uint32(k) }
func keyLastID(k []byte) uint32     { return binary.BigEndian.Uint32(k[4:]) }

// Build constructs the index over d with original record ids. Blocks are
// bulk-loaded in key order so the physical layout matches the OIF's (the
// paper builds both with the same block size for a fair ablation).
func Build(d *dataset.Dataset, opts Options) (*Index, error) {
	opts.fill()
	pool := storage.NewBufferPool(storage.NewMemPager(opts.PageSize), storage.DefaultPoolPages)
	ix := &Index{
		domainSize: d.DomainSize(),
		numRecords: d.Len(),
		counts:     make([]int64, d.DomainSize()),
	}
	type itemBlocks struct {
		postings []vbyte.Posting
		keys     [][]byte
		vals     [][]byte
	}
	pend := make([]itemBlocks, d.DomainSize())
	flush := func(item dataset.Item) error {
		p := &pend[item]
		if len(p.postings) == 0 {
			return nil
		}
		val, err := vbyte.AppendPostings(nil, p.postings, 0)
		if err != nil {
			return err
		}
		p.keys = append(p.keys, blockKey(item, p.postings[len(p.postings)-1].ID))
		p.vals = append(p.vals, val)
		ix.blocks++
		p.postings = p.postings[:0]
		return nil
	}
	for _, r := range d.Records() {
		if len(r.Set) == 0 {
			ix.emptyIDs = append(ix.emptyIDs, r.ID)
			continue
		}
		for _, it := range r.Set {
			p := &pend[it]
			p.postings = append(p.postings, vbyte.Posting{ID: r.ID, Length: uint32(len(r.Set))})
			ix.counts[it]++
			if len(p.postings) >= opts.BlockPostings {
				if err := flush(it); err != nil {
					return nil, err
				}
			}
		}
	}
	for it := 0; it < d.DomainSize(); it++ {
		if err := flush(dataset.Item(it)); err != nil {
			return nil, err
		}
	}
	curItem, curIdx := 0, 0
	tree, err := btree.BulkLoad(pool, func() ([]byte, []byte, bool, error) {
		for curItem < d.DomainSize() && curIdx >= len(pend[curItem].keys) {
			curItem++
			curIdx = 0
		}
		if curItem >= d.DomainSize() {
			return nil, nil, false, nil
		}
		k := pend[curItem].keys[curIdx]
		v := pend[curItem].vals[curIdx]
		curIdx++
		return k, v, true, nil
	})
	if err != nil {
		return nil, err
	}
	ix.tree = tree
	return ix, nil
}

// SetPool swaps the measurement buffer pool.
func (ix *Index) SetPool(pool *storage.BufferPool) error { return ix.tree.SetPool(pool) }

// Pool returns the current buffer pool.
func (ix *Index) Pool() *storage.BufferPool { return ix.tree.Pool() }

// NumRecords returns |D|.
func (ix *Index) NumRecords() int { return ix.numRecords }

// DomainSize returns |I|.
func (ix *Index) DomainSize() int { return ix.domainSize }

// ItemSupports returns the per-item support table: index = item id,
// value = postings in the item's lists (every record posts each of its
// items, so this is the exact support). A planning estimate for query
// ordering, not an answer.
func (ix *Index) ItemSupports() []int64 {
	return append([]int64(nil), ix.counts...)
}

// Blocks returns the number of B-tree entries.
func (ix *Index) Blocks() int64 { return ix.blocks }

// scanList decodes item's entire list by walking its blocks.
func (ix *Index) scanList(item dataset.Item) ([]vbyte.Posting, error) {
	cur, err := ix.tree.Seek(blockKey(item, 0), btree.BytewiseCompare)
	if err != nil {
		return nil, err
	}
	out := make([]vbyte.Posting, 0, ix.counts[item])
	for cur.Valid() && keyItem(cur.Key()) == item {
		out, err = vbyte.DecodePostings(cur.Value(), 0, out)
		if err != nil {
			return nil, err
		}
		if err := cur.Next(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// filterByListRange keeps candidates that appear in item's list by
// scanning the block range [minCand, maxCand] sequentially — Algorithm
// 1's range restriction (line 15), which is all the evaluation the paper
// runs against the unordered tree. Without the OIF's global ordering,
// candidate ids scatter uniformly over the id space, so this range
// usually spans nearly the whole list: exactly the effect the ablation
// exists to demonstrate.
func (ix *Index) filterByListRange(item dataset.Item, cands []uint32) ([]uint32, error) {
	if len(cands) == 0 {
		return nil, nil
	}
	out := cands[:0]
	var marks []uint64
	cur, err := ix.tree.Seek(blockKey(item, cands[0]), btree.BytewiseCompare)
	if err != nil {
		return nil, err
	}
	i := 0
	for i < len(cands) && cur.Valid() && keyItem(cur.Key()) == item {
		if i, out, err = keepListed(cur, cands, i, out, &marks); err != nil {
			return nil, err
		}
		if err := cur.Next(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// keepListed appends to out the candidates from cands[i:] that the
// cursor's block (its key carries the block's last id) can cover and does
// hold, and returns the index of the first candidate beyond the block.
// out may be cands[:j] for j <= i — the in-place filter AppendMatches
// allows.
func keepListed(cur *btree.Cursor, cands []uint32, i int, out []uint32, marks *[]uint64) (int, []uint32, error) {
	hi, lastID := i, keyLastID(cur.Key())
	for hi < len(cands) && cands[hi] <= lastID {
		hi++
	}
	out, err := vbyte.AppendMatches(out, cur.Value(), 0, cands[i:hi], marks)
	return hi, out, err
}

// filterByListProbes keeps candidates via per-candidate id seeks. The
// paper's equality evaluation uses this ("the candidate solutions are
// usually very limited and can be directly accessed using the B-tree").
func (ix *Index) filterByListProbes(item dataset.Item, cands []uint32) ([]uint32, error) {
	if len(cands) == 0 {
		return nil, nil
	}
	out := cands[:0]
	var marks []uint64
	i := 0
	for i < len(cands) {
		cur, err := ix.tree.Seek(blockKey(item, cands[i]), btree.BytewiseCompare)
		if err != nil {
			return nil, err
		}
		if !cur.Valid() || keyItem(cur.Key()) != item {
			break
		}
		if i, out, err = keepListed(cur, cands, i, out, &marks); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// byCount orders query items by ascending list size so the initial full
// scan is the cheapest one.
func (ix *Index) byCount(q []dataset.Item) []dataset.Item {
	s := append([]dataset.Item(nil), q...)
	sort.SliceStable(s, func(i, j int) bool { return ix.counts[s[i]] < ix.counts[s[j]] })
	return s
}

// Subset returns ids of records containing all of qs, ascending.
func (ix *Index) Subset(qs []dataset.Item) ([]uint32, error) {
	q, err := dataset.Canonical(qs, ix.domainSize)
	if err != nil {
		return nil, err
	}
	if len(q) == 0 {
		out := make([]uint32, 0, ix.numRecords)
		for id := uint32(1); id <= uint32(ix.numRecords); id++ {
			out = append(out, id)
		}
		return out, nil
	}
	order := ix.byCount(q)
	first, err := ix.scanList(order[0])
	if err != nil {
		return nil, err
	}
	cands := make([]uint32, 0, len(first))
	for _, p := range first {
		if p.Length >= uint32(len(q)) {
			cands = append(cands, p.ID)
		}
	}
	for _, it := range order[1:] {
		if len(cands) == 0 {
			break
		}
		cands, err = ix.filterByListRange(it, cands)
		if err != nil {
			return nil, err
		}
	}
	return cands, nil
}

// Equality returns ids of records whose set equals qs, ascending.
func (ix *Index) Equality(qs []dataset.Item) ([]uint32, error) {
	q, err := dataset.Canonical(qs, ix.domainSize)
	if err != nil {
		return nil, err
	}
	if len(q) == 0 {
		return append([]uint32(nil), ix.emptyIDs...), nil
	}
	order := ix.byCount(q)
	first, err := ix.scanList(order[0])
	if err != nil {
		return nil, err
	}
	var cands []uint32
	for _, p := range first {
		if p.Length == uint32(len(q)) {
			cands = append(cands, p.ID)
		}
	}
	for _, it := range order[1:] {
		if len(cands) == 0 {
			break
		}
		cands, err = ix.filterByListProbes(it, cands)
		if err != nil {
			return nil, err
		}
	}
	return cands, nil
}

// Superset returns ids of records contained in qs, ascending. Without an
// ordering the whole of every list must be scanned (the paper: "the
// unordered B-tree does not have any advantage ... for superset queries").
func (ix *Index) Superset(qs []dataset.Item) ([]uint32, error) {
	q, err := dataset.Canonical(qs, ix.domainSize)
	if err != nil {
		return nil, err
	}
	lists := make([][]vbyte.Posting, len(q))
	for i, it := range q {
		lists[i], err = ix.scanList(it)
		if err != nil {
			return nil, err
		}
	}
	// Union with occurrence counting (§2), as in the inverted file.
	results := vbyte.AppendCovered(slices.Clone(ix.emptyIDs), lists)
	slices.Sort(results)
	return results, nil
}

// NewReader returns an independent query handle over the same tree pages
// with its own buffer pool; see core.Index.NewReader for the contract.
func (ix *Index) NewReader(poolPages int) (*Reader, error) {
	pool := storage.NewBufferPool(ix.tree.Pool().Pager(), poolPages)
	view, err := ix.tree.View(pool)
	if err != nil {
		return nil, err
	}
	clone := *ix
	clone.tree = view
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
