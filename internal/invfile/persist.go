package invfile

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"repro/internal/liststore"
	"repro/internal/overlay"
	"repro/internal/snapio"
	"repro/internal/storage"
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

// Save writes a self-contained snapshot of the index to w.
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
		raw, err := ix.store.ReadList(uint32(item))
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
	for item := 0; item < domainSize; item++ {
		raw, err := snapio.ReadBytes(cr)
		if err != nil {
			return nil, fmt.Errorf("%w: list %d: %v", ErrBadSnapshot, item, err)
		}
		if err := w.WriteList(uint32(item), raw); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	if err := cr.VerifyTrailer(); err != nil {
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
