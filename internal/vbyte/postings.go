package vbyte

import (
	"errors"
	"fmt"
)

// Posting is one inverted-list entry: a record id plus the record's set
// cardinality. The paper extends the classic inverted file with the length
// "so that equality and superset queries can be processed" (§2, after
// Helmer & Moerkotte), and the OIF keeps the same payload per block (§5:
// "Each inverted list is populated by postings which are comprised by the
// id and the length of the records").
type Posting struct {
	ID     uint32 // record id (1-based; 0 is reserved)
	Length uint32 // cardinality of the record's set
}

// ErrNonMonotonic reports posting ids that are not strictly increasing,
// which d-gap coding requires.
var ErrNonMonotonic = errors.New("vbyte: posting ids not strictly increasing")

// AppendPostings appends the compressed encoding of postings to dst.
// Ids are delta-coded against prev (pass 0 for a fresh list or block head;
// the paper notes OIF blocks store their first id explicitly, which callers
// achieve by passing prev = 0 per block) and then v-byte coded; lengths are
// v-byte coded directly.
func AppendPostings(dst []byte, postings []Posting, prev uint32) ([]byte, error) {
	last := prev
	for _, p := range postings {
		if p.ID <= last {
			return nil, fmt.Errorf("%w: id %d after %d", ErrNonMonotonic, p.ID, last)
		}
		dst = AppendUint32(dst, p.ID-last)
		dst = AppendUint32(dst, p.Length)
		last = p.ID
	}
	return dst, nil
}

// DecodePostings decodes every posting in buf, delta-decoding ids against
// prev, appending to out (which may be nil) and returning the result. It
// is the reference decoder: the block kernels (kernels.go) must agree
// with it on every input, errors included.
func DecodePostings(buf []byte, prev uint32, out []Posting) ([]Posting, error) {
	last := prev
	for len(buf) > 0 {
		gap, n, err := Uint32(buf)
		if err != nil {
			return nil, fmt.Errorf("vbyte: posting id gap: %w", err)
		}
		buf = buf[n:]
		length, n, err := Uint32(buf)
		if err != nil {
			return nil, fmt.Errorf("vbyte: posting length: %w", err)
		}
		buf = buf[n:]
		if gap == 0 {
			return nil, fmt.Errorf("%w: zero gap", ErrNonMonotonic)
		}
		if last+gap < last {
			return nil, fmt.Errorf("%w: id %d + gap %d overflows 32 bits", ErrNonMonotonic, last, gap)
		}
		last += gap
		out = append(out, Posting{ID: last, Length: length})
	}
	return out, nil
}

// AppendCovered appends to dst, ascending, the ids of the records every
// one of whose items has a posting among lists: a k-way merge over the
// id-sorted lists that counts each id's occurrences and qualifies it when
// the count equals its recorded length. This is the inverted file's
// superset evaluation (§2, "union with occurrence counting"), shared by
// every index that reads whole lists; lists is not modified.
func AppendCovered(dst []uint32, lists [][]Posting) []uint32 {
	idx := make([]int, len(lists))
	for {
		next, found := uint32(0), false
		for i, l := range lists {
			if idx[i] < len(l) && (!found || l[idx[i]].ID < next) {
				next, found = l[idx[i]].ID, true
			}
		}
		if !found {
			return dst
		}
		var count, length uint32
		for i, l := range lists {
			if idx[i] < len(l) && l[idx[i]].ID == next {
				count++
				length = l[idx[i]].Length
				idx[i]++
			}
		}
		if count == length {
			dst = append(dst, next)
		}
	}
}
