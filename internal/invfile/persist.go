package invfile

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/liststore"
	"repro/internal/overlay"
	"repro/internal/snapio"
	"repro/internal/storage"
	"repro/internal/vbyte"
)

// Index snapshots. Save serialises the inverted file — vocabulary
// counters, empty-record ids, the tombstone set, the pending delta, and
// every compressed disk list — into one versioned stream guarded by a
// CRC32 trailer; Load reconstructs a queryable index backed by an
// in-memory pager, repacking the lists through the standard writer so
// the physical layout (and therefore the I/O profile) matches a fresh
// build. The format mirrors the OIF snapshot's framing (see
// internal/snapio) so corruption handling is uniform across engines.

const snapshotMagic = "IFSNAP01"

// snapshot header flags.
const snapFlagDeadDirty = 1 << 0 // tombstoned postings still on disk

// ErrBadSnapshot reports a corrupt or foreign snapshot stream.
var ErrBadSnapshot = errors.New("invfile: bad index snapshot")

// Save writes a self-contained snapshot of the index to w. It reads the
// lists through a pool of its own, as the OIF's Save reads its pager:
// the index's pool, its frames and its statistics, are left as they
// were, so Saves may run beside each other and beside readers.
func (ix *Index) Save(w io.Writer) error {
	lists, err := ix.store.View(storage.NewBufferPool(ix.store.Pool().Pager(), 1))
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	cw := snapio.NewWriter(bw)
	if _, err := io.WriteString(cw, snapshotMagic); err != nil {
		return err
	}
	flags := uint32(0)
	if ix.ov.Dirty() {
		flags |= snapFlagDeadDirty
	}
	pageSize := ix.store.Pool().PageSize()
	for _, v := range []uint32{uint32(pageSize), uint32(ix.domainSize), uint32(ix.numRecords), flags} {
		if err := snapio.WriteU32(cw, v); err != nil {
			return err
		}
	}
	if err := snapio.WriteU32Slice(cw, ix.emptyIDs); err != nil {
		return err
	}
	if err := snapio.WriteU32Slice(cw, ix.lastID); err != nil {
		return err
	}
	for _, c := range ix.counts {
		if err := snapio.WriteU64(cw, uint64(c)); err != nil {
			return err
		}
	}
	if err := ix.ov.WriteSections(cw, overlay.TombstonesFirst); err != nil {
		return err
	}
	// Disk lists, one length-framed blob per item.
	for item := 0; item < ix.domainSize; item++ {
		raw, err := lists.ReadList(uint32(item))
		if err != nil {
			return err
		}
		if err := snapio.WriteBytes(cw, raw); err != nil {
			return err
		}
	}
	if err := cw.WriteTrailer(); err != nil {
		return err
	}
	return bw.Flush()
}

// Load reconstructs an index from a snapshot produced by Save. The index
// is backed by an in-memory pager with the snapshot's page size.
func Load(r io.Reader) (*Index, error) {
	cr := snapio.NewReader(bufio.NewReaderSize(r, 1<<16))
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(cr, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadSnapshot, magic)
	}
	var hdr [4]uint32
	for i := range hdr {
		v, err := snapio.ReadU32(cr)
		if err != nil {
			return nil, fmt.Errorf("%w: header: %v", ErrBadSnapshot, err)
		}
		hdr[i] = v
	}
	pageSize, domainSize, numRecords, flags := int(hdr[0]), int(hdr[1]), int(hdr[2]), hdr[3]
	if pageSize <= 0 || pageSize > 1<<20 || domainSize < 0 || numRecords < 0 {
		return nil, fmt.Errorf("%w: implausible header", ErrBadSnapshot)
	}
	emptyIDs, err := snapio.ReadU32Slice(cr)
	if err != nil {
		return nil, fmt.Errorf("%w: empty ids: %v", ErrBadSnapshot, err)
	}
	lastID, err := snapio.ReadU32Slice(cr)
	if err != nil || len(lastID) != domainSize {
		return nil, fmt.Errorf("%w: vocabulary", ErrBadSnapshot)
	}
	counts := make([]int64, domainSize)
	for i := range counts {
		v, err := snapio.ReadU64(cr)
		if err != nil {
			return nil, fmt.Errorf("%w: counts", ErrBadSnapshot)
		}
		counts[i] = int64(v)
	}
	var ov overlay.Overlay
	if err := ov.ReadSections(cr, overlay.TombstonesFirst, domainSize, numRecords, flags&snapFlagDeadDirty != 0); err != nil {
		return nil, fmt.Errorf("%w: tombstones and delta: %v", ErrBadSnapshot, err)
	}
	pool := storage.NewBufferPool(storage.NewMemPager(pageSize), storage.DefaultPoolPages)
	store, err := liststore.New(pool, domainSize)
	if err != nil {
		return nil, err
	}
	w, err := store.NewWriter()
	if err != nil {
		return nil, err
	}
	lists := make([][]byte, domainSize)
	for item := range lists {
		raw, err := snapio.ReadBytes(cr)
		if err != nil {
			return nil, fmt.Errorf("%w: list %d: %v", ErrBadSnapshot, item, err)
		}
		if err := w.WriteList(uint32(item), raw); err != nil {
			return nil, err
		}
		lists[item] = raw
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	if err := cr.VerifyTrailer(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if err := checkLists(lists, counts, lastID, emptyIDs, numRecords, ov.Deleted()); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return &Index{
		store:      store,
		domainSize: domainSize,
		numRecords: numRecords,
		emptyIDs:   emptyIDs,
		lastID:     lastID,
		counts:     counts,
		ov:         ov,
	}, nil
}

// checkLists holds the lists of a snapshot to the vocabulary it stores
// beside them and to one collection of numRecords records, since the
// checksum guards only against accidents and queries trust all of it:
// each list's posting count and last id must be its stored ones, and
// its ids within the records; each record's postings must all carry
// one length, and number that many; and the empty-set ids must ascend
// strictly within the records, with no list posting one. Every record
// is posted, empty or tombstoned, and a posting takes two bytes or
// more, so the records are held to that first: the per-record tally is
// never sized by a count the stream does not back with bytes.
func checkLists(lists [][]byte, counts []int64, lastID, emptyIDs []uint32, numRecords, deleted int) error {
	room := len(emptyIDs) + deleted
	for _, raw := range lists {
		room += len(raw) / 2
	}
	if numRecords > room {
		return fmt.Errorf("%d records, where the lists, empty sets and tombstones hold at most %d", numRecords, room)
	}
	type tally struct{ length, postings uint32 }
	records := make([]tally, numRecords+1)
	var ps []vbyte.Posting
	for item, raw := range lists {
		var err error
		if ps, _, err = vbyte.AppendPostingsAfter(ps[:0], raw, 0, 0, math.MaxUint32); err != nil {
			return fmt.Errorf("list %d: %v", item, err)
		}
		last := uint32(0)
		if len(ps) > 0 {
			last = ps[len(ps)-1].ID
		}
		if int64(len(ps)) != counts[item] || last != lastID[item] {
			return fmt.Errorf("list %d holds %d postings up to id %d, the vocabulary says %d up to %d",
				item, len(ps), last, counts[item], lastID[item])
		}
		if last > uint32(numRecords) {
			return fmt.Errorf("list %d posts id %d of %d records", item, last, numRecords)
		}
		for _, p := range ps {
			r := &records[p.ID]
			if r.postings > 0 && r.length != p.Length {
				return fmt.Errorf("record %d posted with lengths %d and %d", p.ID, r.length, p.Length)
			}
			r.length = p.Length
			r.postings++
		}
	}
	for id, r := range records {
		if r.postings != r.length {
			return fmt.Errorf("record %d of length %d has %d postings", id, r.length, r.postings)
		}
	}
	for i, id := range emptyIDs {
		if id == 0 || id > uint32(numRecords) || i > 0 && id <= emptyIDs[i-1] || records[id].postings > 0 {
			return fmt.Errorf("empty-set id %d is zero, out of order, past the %d records or posted", id, numRecords)
		}
	}
	return nil
}
