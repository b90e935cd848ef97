package core

import (
	"fmt"
	"hash/maphash"
	"math"
	"slices"

	"repro/internal/sequence"
	"repro/internal/vbyte"
)

// Hot lists. Under Zipf skew a few inverted lists stay dense even after
// the OIF has cut each record's most frequent item from them, and every
// subset query over frequent items filters its candidates through one of
// them (filterByList, Algorithm 1 line 15). For a list whose exact id
// bitmap takes no more bytes than its encoded blocks, the index keeps
// that bitmap in memory beside the blocks, with one fingerprint per
// block, and filterByList answers a visited block's candidates by bit
// tests instead of decoding the block. The walk over the blocks is
// unchanged — the same seeks, the same pages — so only CPU moves. A
// block is answered from the bitmap only while its bytes match the
// fingerprint taken when the list was built or loaded; any other block
// takes the decode kernel, so a block that changed under the index fails
// exactly as it would without the bitmap.
//
// The structure is derived, never saved: build makes it from the encoded
// blocks in hand, Load from the one pass over every list block that also
// validates them (scanLists). It is immutable, shared by every Reader
// clone, and not counted in Space.

// hotSeed keys the block fingerprints, which never leave the process.
var hotSeed = maphash.MakeSeed()

// hotList is the in-memory membership form of one dense list.
type hotList struct {
	bits  []uint64 // bit id set exactly when id is posted in the list
	lasts []uint32 // per block, ascending: its last id (its key's suffix)
	sums  []uint64 // per block: the maphash of its encoded postings
}

// isHot is the selection rule: a list whose ids end at last and whose
// blocks encode to size bytes keeps a bitmap when the bitmap, one bit
// per id up to last, takes no more bytes than the blocks.
func isHot(last uint32, size int) bool { return 8*(int(last>>6)+1) <= size }

// find returns the index of the block ending at last, or len(h.lasts)
// if no block does; 0 for a list without a bitmap.
func (h *hotList) find(last uint32) int {
	if h == nil {
		return 0
	}
	if j, ok := slices.BinarySearch(h.lasts, last); ok {
		return j
	}
	return len(h.lasts)
}

// holds reports whether filterByList may answer the visited block from
// the bitmap: the block is the list's block j as fingerprinted — it ends
// at last and holds val — and the first candidate it is asked about lies
// past the block before it. The candidates then all lie in the block's
// id range, so each one's bit is its membership in the block. On the
// tree Load validated, filterByList's walk guarantees the last clause:
// a seek lands on the first block ending at or past the candidate, and
// a next on the block after the one that ended below it. The clause
// guards the one input the fingerprint cannot see, a page that changed
// under the index in the key of the block before: a seek past that key
// lands on block j with candidates of block j-1, which the kernel does
// not find in block j (TestBitmapProbeFollowsChangedKey).
func (h *hotList) holds(j int, last, first uint32, val []byte) bool {
	return h != nil && j < len(h.lasts) && h.lasts[j] == last &&
		(j == 0 || first > h.lasts[j-1]) && maphash.Bytes(hotSeed, val) == h.sums[j]
}

// appendMembers appends to dst the members of cands (sorted, none past
// the list's last id) posted in the list. Like vbyte.AppendMatches it
// filters in place when dst shares cands' storage and ends at or before
// cands[0]'s slot: each candidate is read before its slot can be
// written. Membership follows no pattern a branch predictor could learn,
// so each candidate is written and kept by advancing the length by its
// bit.
func (h *hotList) appendMembers(dst, cands []uint32) []uint32 {
	for _, c := range cands {
		dst = append(dst, c)
		dst = dst[:len(dst)-1+int(h.bits[c>>6]>>(c&63)&1)]
	}
	return dst
}

// listScan reads one list's blocks in key order and checks each against
// what a build writes; take then keeps the list as a hotList if the rule
// selects it.
type listScan struct {
	lasts []uint32
	sums  []uint64
	size  int
}

// add decodes the list's next block, val, whose key ends in last, and
// appends its postings to dst. It refuses, in this order, a block the
// decode kernels refuse, an empty block (a build never writes one), a
// posting id past numRecords, a block whose decoded last id is not
// last, and one whose ids do not ascend past the block before it.
func (s *listScan) add(dst []vbyte.Posting, val []byte, last uint32, numRecords int) ([]vbyte.Posting, error) {
	start := len(dst)
	dst, _, err := vbyte.AppendPostingsAfter(dst, val, 0, 0, math.MaxUint32)
	if err != nil {
		return nil, err
	}
	blk := dst[start:]
	if len(blk) == 0 {
		return nil, fmt.Errorf("empty block ending at id %d", last)
	}
	got := blk[len(blk)-1].ID
	switch n := len(s.lasts); {
	case uint64(got) > uint64(numRecords):
		return nil, fmt.Errorf("posting id %d past %d records", got, numRecords)
	case got != last:
		return nil, fmt.Errorf("block decodes to last id %d, its key says %d", got, last)
	case n > 0 && blk[0].ID <= s.lasts[n-1]:
		return nil, fmt.Errorf("block starts at id %d, not past the block before it (%d)", blk[0].ID, s.lasts[n-1])
	}
	s.lasts = append(s.lasts, last)
	s.sums = append(s.sums, maphash.Bytes(hotSeed, val))
	s.size += len(val)
	return dst, nil
}

// take resets the scan for the next list and sets hot[rank] if the rule
// selects the list scanned, whose postings are ps; a nil hot keeps none.
func (s *listScan) take(hot []*hotList, rank sequence.Rank, ps []vbyte.Posting) {
	if n := len(s.lasts); hot != nil && n > 0 && isHot(s.lasts[n-1], s.size) {
		h := &hotList{
			bits:  make([]uint64, s.lasts[n-1]>>6+1),
			lasts: slices.Clone(s.lasts),
			sums:  slices.Clone(s.sums),
		}
		for _, p := range ps {
			h.bits[p.ID>>6] |= 1 << (p.ID & 63)
		}
		hot[rank] = h
	}
	s.lasts, s.sums, s.size = s.lasts[:0], s.sums[:0], 0
}
