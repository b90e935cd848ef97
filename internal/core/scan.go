package core

import (
	"fmt"

	"repro/internal/btree"
	"repro/internal/sequence"
	"repro/internal/vbyte"
)

// listCursor walks the blocks of one rank's inverted list in id order.
// It becomes invalid when the underlying B-tree cursor leaves the rank's
// key range.
//
// Cursors live in the query arena: only one is live at a time on a query
// path (candidate gathering finishes before the filter phase, and
// filters walk one list at a time), so seekTag/seekID recycle the same
// cursor — and through it the B-tree cursor's page buffer and the tag
// decode buffer — across every seek of a query and across queries.
type listCursor struct {
	ix    *Index
	rank  sequence.Rank
	cur   btree.Cursor
	valid bool

	key    []byte          // current block key, owned by cur until it moves
	tag    []sequence.Rank // key's tag once blockTag has decoded it
	tagOK  bool
	lastID uint32
}

// seekTag positions at the first block of rank whose tag >= sf. With a
// configured TagPrefix both the stored tags and the probe are truncated;
// prefix truncation preserves <=, so the seek lands at or before the true
// lower bound (see Options.TagPrefix).
func (ix *Index) seekTag(rank sequence.Rank, sf []sequence.Rank) (*listCursor, error) {
	ix.arena.probe = appendTagProbe(ix.arena.probe[:0], rank, ix.truncTag(sf))
	lc := &ix.arena.lc
	lc.ix, lc.rank = ix, rank
	if err := ix.tree.SeekCursor(&lc.cur, ix.arena.probe, btree.BytewiseCompare); err != nil {
		return nil, err
	}
	return lc, lc.load()
}

// seekID positions at the first block of rank whose lastID >= id, i.e.
// the block that would contain record id.
func (ix *Index) seekID(rank sequence.Rank, id uint32) (*listCursor, error) {
	ix.arena.probe = appendIDProbe(ix.arena.probe[:0], rank, id)
	lc := &ix.arena.lc
	lc.ix, lc.rank = ix, rank
	if err := ix.tree.SeekCursor(&lc.cur, ix.arena.probe, idProbeCompare); err != nil {
		return nil, err
	}
	return lc, lc.load()
}

// load reads the current B-tree entry, invalidating the cursor if it has
// moved past this rank's list. Only the key's framing is checked here —
// rank prefix, one whole terminated tag, id suffix; the tag's elements
// are decoded by blockTag where a scan reads them, which an id-directed
// probe never does.
func (lc *listCursor) load() error {
	if !lc.cur.Valid() {
		lc.valid = false
		return nil
	}
	k := lc.cur.Key()
	if len(k) < 9 { // rank + empty tag + id
		return fmt.Errorf("core: block key too short (%d bytes)", len(k))
	}
	if keyRank(k) != lc.rank {
		lc.valid = false
		return nil
	}
	if !sequence.TagFramed(k[4 : len(k)-4]) {
		return fmt.Errorf("core: block key of %d bytes does not frame a tag", len(k))
	}
	lc.key, lc.tagOK = k, false
	lc.lastID = keyLastID(k)
	lc.valid = true
	return nil
}

// blockTag returns the current block's tag, decoded into the cursor's
// reusable buffer on first use.
func (lc *listCursor) blockTag() ([]sequence.Rank, error) {
	if !lc.tagOK {
		enc := lc.key[4 : len(lc.key)-4]
		tag, n, err := sequence.AppendDecodedTag(lc.tag[:0], enc)
		if err != nil {
			return nil, fmt.Errorf("core: block key tag: %w", err)
		}
		if n != len(enc) {
			return nil, fmt.Errorf("core: block key has %d trailing bytes, want 4", len(enc)-n+4)
		}
		lc.tag, lc.tagOK = tag, true
	}
	return lc.tag, nil
}

// next advances to the following block of the same list.
func (lc *listCursor) next() error {
	if !lc.valid {
		return nil
	}
	if err := lc.cur.Next(); err != nil {
		return err
	}
	return lc.load()
}

// pastUpper reports whether the current block's tag is strictly beyond the
// RoI upper bound — the block is still processed (it may hold boundary
// records), but the scan stops after it (§4: "the tag of the last one must
// be strictly greater than the greater bound of the RoI"). Stored tags may
// be prefix-truncated, so the bound is truncated to match: a truncated tag
// exceeding the truncated bound implies the full tag exceeds the full
// bound, and ties keep scanning (never stopping early).
func (lc *listCursor) pastUpper(upper []sequence.Rank) (bool, error) {
	tag, err := lc.blockTag()
	return sequence.Compare(tag, lc.ix.truncTag(upper)) > 0, err
}

// appendIDs appends to dst the ids of the list's postings whose records
// hold minLen to maxLen items, from the cursor's block on: up to the
// first block whose tag is past upper, that block included (pastUpper),
// or, for a nil upper, to the list's end, decoding no tag. The ids
// ascend. It is the RoI scan of subset and equality, and subset's walk of
// a whole list.
func (lc *listCursor) appendIDs(dst []uint32, upper []sequence.Rank, minLen, maxLen uint32) ([]uint32, error) {
	for lc.valid {
		var err error
		if dst, err = vbyte.AppendIDs(dst, lc.cur.Value(), 0, minLen, maxLen); err != nil {
			return nil, err
		}
		if upper != nil {
			if past, err := lc.pastUpper(upper); err != nil {
				return nil, err
			} else if past {
				break
			}
		}
		if err := lc.next(); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// appendConsecutiveRanks appends the sequence (from, from+1, ..., to).
func appendConsecutiveRanks(dst []sequence.Rank, from, to sequence.Rank) []sequence.Rank {
	for r := from; ; r++ {
		dst = append(dst, r)
		if r == to {
			break
		}
	}
	return dst
}

// appendBoundSet appends the sorted set {a, b, c} with duplicates
// collapsed — used for RoI upper bounds like (q_j, q_i, q_n) whose
// components may coincide.
func appendBoundSet(dst []sequence.Rank, a, b, c sequence.Rank) []sequence.Rank {
	dst = append(dst, a)
	if b != a {
		dst = append(dst, b)
	}
	if c != dst[len(dst)-1] {
		dst = append(dst, c)
	}
	return dst
}
