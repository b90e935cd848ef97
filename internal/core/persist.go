package core

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"runtime"

	"repro/internal/btree"
	"repro/internal/overlay"
	"repro/internal/sequence"
	"repro/internal/snapio"
	"repro/internal/storage"
)

// Index snapshots. Save serialises everything an OIF needs — options,
// the item order, the record reordering's id map, the metadata table,
// the space accounting, the pending delta, the tombstone set, and the
// raw B-tree pages — into one stream guarded by a CRC32 trailer; Load
// reconstructs a queryable index backed by an in-memory pager. The
// paper's own deployment would keep the Berkeley DB file plus a small
// sidecar (the metadata table and the reassignment map); a single
// self-contained snapshot is the simpler equivalent for a library.
//
// Format version 2 extended the original header with a reserved word
// and a flags word, and appended the tombstone set after the delta, so a
// snapshot taken between Delete and MergeDelta restores with its
// masking (and its pending physical fold-out) intact. The reserved word
// (header word 6) sized a decoded-block cache that no longer exists: a
// fresh Build writes 0, Load never interprets it, and Save writes back
// whatever Load read. Version 3, the one Save writes, is version 2
// without the sequence forms' arena and offsets, a second copy of the
// collection the lists and the metadata table already hold: MergeDelta
// reads it back from them (update.go). Load reads both versions; of a
// version-2 stream it reads past the two sections and holds only their
// sizes to the lists'.

const (
	snapshotMagic   = "OIFSNAP3"
	snapshotMagicV2 = "OIFSNAP2" // read, never written
)

// snapshot header flags.
const snapFlagDeadDirty = 1 << 0 // tombstoned postings still on disk

// ErrBadSnapshot reports a corrupt or foreign snapshot stream.
var ErrBadSnapshot = errors.New("core: bad index snapshot")

// Save writes a self-contained OIFSNAP3 snapshot of the index to w. It
// streams what the index holds and builds nothing on the way.
func (ix *Index) Save(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	cw := snapio.NewWriter(bw)
	if _, err := io.WriteString(cw, snapshotMagic); err != nil {
		return err
	}
	flags := uint32(0)
	if ix.ov.Dirty() {
		flags |= snapFlagDeadDirty
	}
	for _, v := range []uint32{
		uint32(ix.opts.PageSize), uint32(ix.opts.BlockPostings),
		uint32(ix.numRecords), uint32(ix.domainSize), ix.meta.EmptyUpper,
		uint32(ix.opts.TagPrefix), ix.snapReserved,
		flags,
	} {
		if err := snapio.WriteU32(cw, v); err != nil {
			return err
		}
	}
	// Item order, metadata regions, reordering.
	regions := make([]uint32, 0, 3*len(ix.meta.Regions))
	for _, reg := range ix.meta.Regions {
		regions = append(regions, reg.L, reg.U, reg.U1)
	}
	for _, section := range [][]uint32{ix.ord.Items(), regions, ix.ids.Perm()} {
		if err := snapio.WriteU32Slice(cw, section); err != nil {
			return err
		}
	}
	// Space accounting.
	for _, v := range []int64{ix.blocks, ix.postingBytes, ix.keyBytes} {
		if err := snapio.WriteU64(cw, uint64(v)); err != nil {
			return err
		}
	}
	lp := make([]uint32, len(ix.listPostings))
	for i, v := range ix.listPostings {
		lp[i] = uint32(v)
	}
	if err := snapio.WriteU32Slice(cw, lp); err != nil {
		return err
	}
	if err := ix.ov.WriteSections(cw, overlay.RecordsFirst); err != nil {
		return err
	}
	// Raw pages, read from the pager the build wrote them to.
	pager := ix.tree.Pool().Pager()
	if err := snapio.WriteU64(cw, uint64(pager.NumPages())); err != nil {
		return err
	}
	page := make([]byte, pager.PageSize())
	for id := storage.PageID(0); int64(id) < pager.NumPages(); id++ {
		if err := pager.ReadPage(id, page); err != nil {
			return err
		}
		if _, err := cw.Write(page); err != nil {
			return err
		}
	}
	// CRC trailer (not itself CRC'd).
	if err := cw.WriteTrailer(); err != nil {
		return err
	}
	return bw.Flush()
}

// Load reconstructs an index from a snapshot produced by Save, in
// OIFSNAP3 or the earlier OIFSNAP2. The index is backed by an in-memory
// pager and metered with the default cache.
// The checksum guards only against accidents, so Load also checks what
// the query path trusts — the metadata table's runs, which tile the
// records past the empty sets in rank order, the B-tree's structure
// (btree.Validate), and every list block, decoded once by scanLists: its
// postings well formed, its ids within the records and ascending across
// the list, its last id its key's, and each posting's length its
// record's, which the lists and the table must agree on — and refuses a
// snapshot that fails any of them with ErrBadSnapshot. So the lists and
// the table Load accepts describe one collection, which MergeDelta reads
// back from them. An OIFSNAP2 stream's own copy of the forms is
// read past, and only its size is held to the lists'. The same pass
// builds the hot lists' bitmaps.
func Load(r io.Reader) (*Index, error) {
	cr := snapio.NewReader(bufio.NewReaderSize(r, 1<<16))
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(cr, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	v2 := string(magic) == snapshotMagicV2
	if !v2 && string(magic) != snapshotMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadSnapshot, magic)
	}
	var hdr [8]uint32
	for i := range hdr {
		v, err := snapio.ReadU32(cr)
		if err != nil {
			return nil, fmt.Errorf("%w: header: %v", ErrBadSnapshot, err)
		}
		hdr[i] = v
	}
	pageSize, blockPostings := int(hdr[0]), int(hdr[1])
	numRecords, domainSize, emptyUpper := int(hdr[2]), int(hdr[3]), hdr[4]
	tagPrefix, reserved, flags := int(hdr[5]), hdr[6], hdr[7]
	if pageSize <= 0 || pageSize > 1<<20 || domainSize < 0 || numRecords < 0 {
		return nil, fmt.Errorf("%w: implausible header", ErrBadSnapshot)
	}

	items, err := snapio.ReadU32Slice(cr)
	if err != nil {
		return nil, fmt.Errorf("%w: order: %v", ErrBadSnapshot, err)
	}
	ord, err := sequence.NewOrderFromItems(items)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	regionWords, err := snapio.ReadU32Slice(cr)
	if err != nil || len(regionWords) != 3*domainSize {
		return nil, fmt.Errorf("%w: regions", ErrBadSnapshot)
	}
	meta := newMetadata(domainSize)
	meta.EmptyUpper = emptyUpper
	for i := 0; i < domainSize; i++ {
		meta.Regions[i] = Region{L: regionWords[3*i], U: regionWords[3*i+1], U1: regionWords[3*i+2]}
	}
	if err := meta.check(numRecords); err != nil {
		return nil, fmt.Errorf("%w: metadata: %v", ErrBadSnapshot, err)
	}
	var flatLen uint64 // the ranks of a version-2 arena
	if v2 {
		if flatLen, err = snapio.SkipU32Slice(cr); err != nil {
			return nil, fmt.Errorf("%w: arena: %v", ErrBadSnapshot, err)
		}
		offLen, err := snapio.SkipU32Slice(cr)
		if err != nil {
			return nil, fmt.Errorf("%w: offsets: %v", ErrBadSnapshot, err)
		}
		if offLen != uint64(numRecords)+1 {
			return nil, fmt.Errorf("%w: %d offsets for %d records", ErrBadSnapshot, offLen, numRecords)
		}
	}
	origIndex, err := snapio.ReadU32Slice(cr)
	if err != nil {
		return nil, fmt.Errorf("%w: id map: %v", ErrBadSnapshot, err)
	}
	if len(origIndex) != numRecords {
		return nil, fmt.Errorf("%w: %d reordered records, header says %d", ErrBadSnapshot, len(origIndex), numRecords)
	}
	ids, err := sequence.NewIDMap(origIndex)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}

	var space [3]int64
	for i := range space {
		v, err := snapio.ReadU64(cr)
		if err != nil {
			return nil, fmt.Errorf("%w: space stats", ErrBadSnapshot)
		}
		space[i] = int64(v)
	}
	lp, err := snapio.ReadU32Slice(cr)
	if err != nil || len(lp) != domainSize {
		return nil, fmt.Errorf("%w: list postings", ErrBadSnapshot)
	}
	listPostings := make([]int64, domainSize)
	for i, v := range lp {
		listPostings[i] = int64(v)
	}
	var ov overlay.Overlay
	if err := ov.ReadSections(cr, overlay.RecordsFirst, domainSize, numRecords, flags&snapFlagDeadDirty != 0); err != nil {
		return nil, fmt.Errorf("%w: delta and tombstones: %v", ErrBadSnapshot, err)
	}

	nPages, err := snapio.ReadU64(cr)
	if err != nil || nPages > snapio.MaxSliceLen {
		return nil, fmt.Errorf("%w: page count", ErrBadSnapshot)
	}
	pager := storage.NewMemPager(pageSize)
	page := make([]byte, pageSize)
	for i := uint64(0); i < nPages; i++ {
		if _, err := io.ReadFull(cr, page); err != nil {
			return nil, fmt.Errorf("%w: page %d: %v", ErrBadSnapshot, i, err)
		}
		id, err := pager.Allocate()
		if err != nil {
			return nil, err
		}
		if err := pager.WritePage(id, page); err != nil {
			return nil, err
		}
	}
	if err := cr.VerifyTrailer(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}

	pool := storage.NewBufferPool(pager, storage.DefaultPoolPages)
	tree, err := btree.Open(pool)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	// Every page a query can reach is checked before one runs, through a
	// pool of its own: the index's pool starts as a fresh build's would.
	check, err := tree.View(storage.NewBufferPool(pager, storage.DefaultPoolPages))
	if err == nil {
		err = check.Validate()
	}
	var p *postings
	if err == nil {
		p, err = scanLists(tree, meta, numRecords, listPostings, runtime.GOMAXPROCS(0), false)
	}
	var ranks uint64
	if err == nil {
		ranks, err = p.sized(listPostings)
	}
	if err == nil && v2 && flatLen != ranks {
		err = fmt.Errorf("an arena of %d ranks, where the lists and the metadata table hold %d", flatLen, ranks)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	hot, hotBlocks := numberHot(p.hot)
	return &Index{
		tree:       tree,
		ord:        ord,
		ids:        ids,
		meta:       meta,
		numRecords: numRecords,
		domainSize: domainSize,
		opts: Options{
			PageSize: pageSize, BlockPostings: blockPostings, TagPrefix: tagPrefix,
		},
		snapReserved: reserved,
		blocks:       space[0],
		postingBytes: space[1],
		keyBytes:     space[2],
		listPostings: listPostings,
		hot:          hot,
		hotBlocks:    hotBlocks,
		ov:           ov,
	}, nil
}
