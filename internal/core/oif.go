package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"

	"repro/internal/btree"
	"repro/internal/dataset"
	"repro/internal/fanout"
	"repro/internal/overlay"
	"repro/internal/sequence"
	"repro/internal/storage"
	"repro/internal/vbyte"
)

// Options configures Build.
type Options struct {
	// PageSize of the B-tree file; 0 selects storage.DefaultPageSize.
	PageSize int
	// BlockPostings caps the postings per inverted-list block; 0 selects
	// DefaultBlockPostings. Smaller blocks mean finer pruning but more
	// B-tree entries (the paper's block size / space trade-off).
	BlockPostings int
	// TagPrefix truncates block tags to this many leading ranks
	// (0 keeps full tags). The paper suggests it to shrink keys (§3:
	// "considering prefixes of the ordered set-values used as tags").
	// Truncation is sound: prefixes preserve the ordering's <= relation,
	// so lower-bound seeks can only start earlier and upper-bound stops
	// can only stop later — trading a few extra block reads for smaller
	// keys. Query probes are truncated to the same length.
	TagPrefix int
	// Pool, when non-nil, receives the index pages instead of a fresh
	// in-memory pager; its pager must be empty. The build writes the
	// pages straight to that pager, and the index reads them back through
	// Pool. It is the seam tests use to build over a pager they control
	// (a storage.FilePager, a fault-injecting or corrupting pager); no
	// product path sets it.
	Pool *storage.BufferPool
}

// DefaultBlockPostings mirrors a block of roughly half a 4 KB page with
// ~2-byte compressed postings.
const DefaultBlockPostings = 64

func (o *Options) fill() {
	if o.PageSize <= 0 {
		o.PageSize = storage.DefaultPageSize
	}
	if o.BlockPostings <= 0 {
		o.BlockPostings = DefaultBlockPostings
	}
}

// Index is a built OIF.
type Index struct {
	tree *btree.BTree
	ord  *sequence.Order
	meta *Metadata
	// ids is the §3 reassignment map. The sequence forms the build
	// sorted are not kept: the lists and the metadata table hold every
	// rank of every record, and forms rebuilds them (forms.go).
	ids *sequence.IDMap

	numRecords int
	domainSize int
	opts       Options

	// Space accounting.
	blocks       int64
	postingBytes int64
	keyBytes     int64
	listPostings []int64 // per rank, postings stored in its list

	// ov is the §4.4 update overlay in original-id space: the pending
	// delta every query consults and the tombstones masked out of every
	// answer, until MergeDelta folds them in.
	ov overlay.Overlay

	// hot holds, per rank, the in-memory bitmap of a list dense enough
	// to keep one (hot.go); nil when no list is. Derived at build and
	// Load, shared by Reader clones.
	hot []*hotList

	// snapReserved is word 6 of the snapshot header, carried from Load
	// to Save uninterpreted (see persist.go); 0 on a fresh Build.
	snapReserved uint32

	// Per-instance query scratch, attached lazily by ensureRuntime and
	// never shared between an Index and its Reader clones.
	arena *queryArena
}

// ErrRecordTooWide reports a record whose block key cannot fit a page.
var ErrRecordTooWide = errors.New("core: record cardinality too large for page size")

// Build constructs the OIF for d, on GOMAXPROCS workers.
func Build(d *dataset.Dataset, opts Options) (*Index, error) {
	return buildOn(d, opts, runtime.GOMAXPROCS(0))
}

// buildOn is Build on up to workers goroutines: the §3 re-ordering and
// the list encoding run on that many, the support count and the bulk
// load on the caller's. The index is the same, page for page, at any
// worker count; MergeDelta builds on one, beside the readers it serves.
func buildOn(d *dataset.Dataset, opts Options, workers int) (*Index, error) {
	opts.fill()
	ord := sequence.OrderFromDataset(d)
	re, err := sequence.Reorder(d, ord, workers)
	if err != nil {
		return nil, err
	}
	return build(d.Len(), d.DomainSize(), ord, re.Forms, re.IDMap, opts, workers)
}

// build assembles the index from a prepared ordering; shared by Build and
// MergeDelta. It reads forms and keeps ids: the index it returns holds no
// reference to forms. Blocks are first assembled per rank in id order and then
// bulk-loaded into the B-tree in global key order, so every list's blocks
// occupy physically consecutive leaves — the layout the paper's RoI scans
// assume (Berkeley DB files built this way show the same locality).
//
// It allocates like a bulk loader: one pass counts every list's postings,
// which fixes each list's number of blocks, so the blocks go in one flat
// list in key order — rank r's at slots first[r] up to first[r+1] — and
// each list's pending postings are a window of one shared arena. Keys and
// encoded postings are copied into shared byte chunks (blockBytes); the
// bulk load copies them into pages in turn, and all of it is garbage once
// the tree is written.
//
// The lists are encoded on up to workers goroutines, each over a run of
// ranks holding about an equal share of the postings (listBuild.encode): a
// worker walks every record but posts only its own ranks, into its own
// slots of the shared slices and its own blockBytes.
func build(numRecords, domainSize int, ord *sequence.Order, forms *sequence.Forms, ids *sequence.IDMap, opts Options, workers int) (*Index, error) {
	pool := opts.Pool
	if pool == nil {
		pool = storage.NewBufferPool(storage.NewMemPager(opts.PageSize), storage.DefaultPoolPages)
	} else if pool.PageSize() != opts.PageSize && opts.PageSize != storage.DefaultPageSize {
		return nil, fmt.Errorf("core: Pool page size %d != PageSize %d", pool.PageSize(), opts.PageSize)
	}
	opts.PageSize = pool.PageSize()
	opts.Pool = nil // never reuse across rebuilds (MergeDelta)
	ix := &Index{
		ord:          ord,
		ids:          ids,
		meta:         newMetadata(domainSize),
		numRecords:   numRecords,
		domainSize:   domainSize,
		opts:         opts,
		listPostings: make([]int64, domainSize),
	}

	// The smallest rank of a record is represented only by the metadata
	// region; every other rank gets a posting (§3: "for every record we
	// avoid creating a posting for its most frequent item").
	for id := uint32(1); id <= uint32(numRecords); id++ {
		sf := forms.SF(id)
		if len(sf) == 0 {
			ix.meta.noteEmpty(id)
			continue
		}
		ix.meta.note(sf[0], id, len(sf))
		for _, r := range sf[1:] {
			ix.listPostings[r]++
		}
	}
	per := int64(opts.BlockPostings)
	first := make([]int, domainSize+1)
	room := 0
	for r, n := range ix.listPostings {
		first[r+1] = first[r] + int((n+per-1)/per)
		room += int(min(n, per))
	}
	lists := &listBuild{
		ix:     ix,
		forms:  forms,
		first:  first,
		blocks: make([]builtBlock, first[domainSize]),
		pend:   make([][]vbyte.Posting, domainSize),
		hot:    make([]*hotList, domainSize),
	}
	arena := make([]vbyte.Posting, room)
	for r, n := range ix.listPostings {
		w := int(min(n, per))
		lists.pend[r], arena = arena[:0:w], arena[w:]
	}

	// Ranks [bounds[w], bounds[w+1]) are worker w's.
	bounds := rankShares(ix.listPostings, workers)
	err := fanout.First(fanout.ForEach(len(bounds)-1, workers, func(w int) error {
		return lists.encode(sequence.Rank(bounds[w]), sequence.Rank(bounds[w+1]))
	}))
	if err != nil {
		return nil, err
	}
	ix.blocks = int64(len(lists.blocks))
	for _, b := range lists.blocks {
		ix.postingBytes += int64(len(b.val))
		ix.keyBytes += int64(len(b.key))
	}
	if slices.ContainsFunc(lists.hot, func(h *hotList) bool { return h != nil }) {
		ix.hot = lists.hot
	}

	// Bulk-load in (rank, tag, id) order: the flat list holds ranks in
	// ascending order, and within a rank blocks in id (= tag) order.
	blocks := lists.blocks
	i := 0
	tree, err := btree.BulkLoad(pool, func() ([]byte, []byte, bool, error) {
		if i == len(blocks) {
			return nil, nil, false, nil
		}
		b := blocks[i]
		i++
		return b.key, b.val, true, nil
	})
	if err != nil {
		if errors.Is(err, btree.ErrKeyTooLarge) {
			return nil, fmt.Errorf("%w: page size %d", ErrRecordTooWide, opts.PageSize)
		}
		return nil, err
	}
	ix.tree = tree
	return ix, nil
}

// listBuild is the state build's encoding workers share. Each writes
// only the slots of its own ranks: rank r's blocks at
// blocks[first[r]:first[r+1]], its pending postings pend[r] (a window
// of one arena), and hot[r].
type listBuild struct {
	ix     *Index
	forms  *sequence.Forms
	first  []int
	blocks []builtBlock
	pend   [][]vbyte.Posting
	hot    []*hotList
}

// encode builds the lists of ranks [lo, hi): it walks the records in
// id order, posts each record to those of its ranks past its smallest
// that fall in the range, writes a block whenever a list has a block's
// worth pending and the rest of each list at the end, and then makes
// the hot lists of the range from the blocks in hand (a list the rule
// passes over is not decoded).
func (lb *listBuild) encode(lo, hi sequence.Rank) error {
	ix := lb.ix
	var enc blockBytes
	var scratch []byte
	next := slices.Clone(lb.first[lo:hi]) // next[r-lo]: rank r's next block slot
	flush := func(rank sequence.Rank) error {
		p := lb.pend[rank]
		if len(p) == 0 {
			return nil
		}
		last := p[len(p)-1].ID
		scratch = appendBlockKey(scratch[:0], rank, ix.truncTag(lb.forms.SF(last)), last)
		key := enc.add(scratch)
		var err error
		if scratch, err = vbyte.AppendPostings(scratch[:0], p, 0); err != nil {
			return err
		}
		lb.blocks[next[rank-lo]] = builtBlock{key: key, val: enc.add(scratch)}
		next[rank-lo]++
		lb.pend[rank] = p[:0]
		return nil
	}

	for id := uint32(1); id <= uint32(ix.numRecords); id++ {
		sf := lb.forms.SF(id)
		if len(sf) < 2 || sf[len(sf)-1] < lo {
			continue
		}
		for _, r := range sf[1:] {
			if r < lo {
				continue
			}
			if r >= hi {
				break
			}
			lb.pend[r] = append(lb.pend[r], vbyte.Posting{ID: id, Length: uint32(len(sf))})
			if len(lb.pend[r]) >= ix.opts.BlockPostings {
				if err := flush(r); err != nil {
					return err
				}
			}
		}
	}
	for rank := lo; rank < hi; rank++ {
		if err := flush(rank); err != nil {
			return err
		}
	}

	var scan listScan
	var ps []vbyte.Posting
	for rank := lo; rank < hi; rank++ {
		list := lb.blocks[lb.first[rank]:lb.first[rank+1]]
		if len(list) == 0 {
			continue
		}
		size := 0
		for _, b := range list {
			size += len(b.val)
		}
		if !isHot(keyLastID(list[len(list)-1].key), size) {
			continue
		}
		ps = ps[:0]
		for _, b := range list {
			var err error
			if ps, err = scan.add(ps, b.val, keyLastID(b.key), ix.numRecords); err != nil {
				return err
			}
		}
		scan.take(lb.hot, rank, ps)
	}
	return nil
}

// builtBlock is one list block on its way to the bulk load: its B-tree
// key and its encoded postings, both in a build's blockBytes.
type builtBlock struct{ key, val []byte }

// blockBytes holds a build's block keys and values in shared chunks: add
// copies one to the end of the open chunk and returns a sub-slice whose
// capacity is its length, and a chunk without room is replaced, never
// grown, so the sub-slices handed out stay put.
type blockBytes struct{ buf []byte }

// blockChunk is the size of one blockBytes chunk (64 KiB).
const blockChunk = 1 << 16

func (a *blockBytes) add(b []byte) []byte {
	if cap(a.buf)-len(a.buf) < len(b) {
		a.buf = make([]byte, 0, max(blockChunk, len(b)))
	}
	n := len(a.buf)
	a.buf = append(a.buf, b...)
	return a.buf[n:len(a.buf):len(a.buf)]
}

// truncTag applies the configured TagPrefix to a sequence form.
func (ix *Index) truncTag(sf []sequence.Rank) []sequence.Rank {
	if ix.opts.TagPrefix > 0 && len(sf) > ix.opts.TagPrefix {
		return sf[:ix.opts.TagPrefix]
	}
	return sf
}

// SetPool swaps the measurement buffer pool (same backing pager).
func (ix *Index) SetPool(pool *storage.BufferPool) error { return ix.tree.SetPool(pool) }

// Pool returns the current buffer pool.
func (ix *Index) Pool() *storage.BufferPool { return ix.tree.Pool() }

// Order exposes the item order (examples and tests use it).
func (ix *Index) Order() *sequence.Order { return ix.ord }

// NumRecords returns the number of indexed records including the delta.
func (ix *Index) NumRecords() int { return ix.numRecords + ix.ov.Len() }

// DomainSize returns |I|.
func (ix *Index) DomainSize() int { return ix.domainSize }

// SpaceStats reports the index's storage footprint, matching the
// quantities discussed in §5 "Space overhead".
type SpaceStats struct {
	Blocks       int64 // B-tree entries (one per list block)
	PostingBytes int64 // compressed postings across all blocks
	KeyBytes     int64 // total key bytes (item + tag + id)
	TreePages    int64 // pages allocated by the B-tree file
	TreeBytes    int64 // TreePages * page size
	MetaBytes    int64 // memory-resident metadata table
	MapBytes     int64 // reassignment map (new id <-> original position)
}

// Space returns the current footprint.
func (ix *Index) Space() SpaceStats {
	pages := ix.tree.Pool().Pager().NumPages()
	return SpaceStats{
		Blocks:       ix.blocks,
		PostingBytes: ix.postingBytes,
		KeyBytes:     ix.keyBytes,
		TreePages:    pages,
		TreeBytes:    pages * int64(ix.tree.Pool().PageSize()),
		MetaBytes:    ix.meta.Bytes(),
		MapBytes:     ix.ids.MapBytes(),
	}
}

// hotList returns rank's hot list, or nil if it keeps no bitmap.
func (ix *Index) hotList(rank sequence.Rank) *hotList {
	if int(rank) < len(ix.hot) {
		return ix.hot[rank]
	}
	return nil
}

// origID maps a new id to the original record id (1-based position in the
// source dataset).
func (ix *Index) origID(newID uint32) uint32 { return uint32(ix.ids.OrigIndex(newID)) + 1 }

// mapToOriginal converts new-id results to sorted original ids appended
// to dst (whose existing contents are untouched — only the appended
// region is sorted), adding matching delta records and masking
// tombstoned ones.
func (ix *Index) mapToOriginal(dst, newIDs []uint32, q []sequence.Rank, pred overlay.Pred) []uint32 {
	start := len(dst)
	dst = ix.appendOriginal(dst, newIDs)
	if ix.ov.Len() > 0 {
		dst = ix.ov.AppendMatches(dst, ix.querySet(q), pred)
	}
	return ix.sortAndMask(dst, start)
}

// sortAndMask sorts dst[start:] and drops its tombstoned ids. The mask
// runs after the sort, on ascending ids, so it meets them in runs within
// one chunk of the tombstone bitmap; the pending matches among them skip
// the dead already, and masking them again keeps them all.
func (ix *Index) sortAndMask(dst []uint32, start int) []uint32 {
	sortIDs(dst[start:], &ix.arena.sorted)
	return dst[:start+len(ix.ov.Mask(dst[start:]))]
}

// querySet converts the prepared query back to a sorted item set in the
// arena, the form the overlay matches pending records against.
func (ix *Index) querySet(q []sequence.Rank) []dataset.Item {
	ix.arena.qset = ix.ord.AppendSet(ix.arena.qset[:0], q)
	return ix.arena.qset
}

// appendOriginal appends the original ids of newIDs to dst, in newIDs'
// order, tombstoned ones included.
func (ix *Index) appendOriginal(dst, newIDs []uint32) []uint32 {
	dst = slices.Grow(dst, len(newIDs))
	for _, id := range newIDs {
		dst = append(dst, ix.origID(id))
	}
	return dst
}

// prepRanks canonicalises a query set into the arena: validated,
// converted to ranks, sorted ascending, deduplicated. The returned slice
// is arena-owned and valid until the next query on this instance.
func (ix *Index) prepRanks(qs []dataset.Item) ([]sequence.Rank, error) {
	ranks := ix.arena.ranks[:0]
	for _, it := range qs {
		r, err := ix.ord.Rank(it)
		if err != nil {
			return nil, err
		}
		ranks = append(ranks, r)
	}
	slices.Sort(ranks)
	out := ranks[:0]
	for i, r := range ranks {
		if i == 0 || r != out[len(out)-1] {
			out = append(out, r)
		}
	}
	ix.arena.ranks = ranks
	return out, nil
}

// ItemSupports returns the per-item support table of the merged index:
// index = item id, value = number of disk-resident records containing
// the item. A record's most frequent item carries no posting in its
// rank's list (it is represented by the rank's metadata region), so the
// support is the list's posting count plus the region width. Pending
// delta inserts and tombstones are not reflected — the table is a
// planning estimate, refreshed by MergeDelta, not an answer.
func (ix *Index) ItemSupports() []int64 {
	supports := make([]int64, ix.domainSize)
	items := ix.ord.Items()
	for rank, n := range ix.listPostings {
		if reg := ix.meta.Regions[rank]; !reg.Empty() {
			n += int64(reg.U-reg.L) + 1
		}
		supports[items[rank]] = n
	}
	return supports
}
