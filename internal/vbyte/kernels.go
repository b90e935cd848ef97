package vbyte

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Block kernels. Each reads a block of postings (AppendPostings' format)
// once and writes only what its caller keeps: AppendMarked the ids a
// candidate bitmap selects, AppendIDs the ids whose length is in range,
// AppendPostingsAfter the whole postings past an id whose length is in
// range. All three walk the block with the
// same steps, each reading the 8 bytes ahead as one word (zero-padded
// past the block's end), fastest first: quad, four postings with
// single-byte gaps and lengths; wordPosting, one posting with a one- or
// two-byte gap and a single-byte length; then, in slowPosting, any
// posting that ends inside the word, and last posting, which decodes
// exactly as DecodePostings does. The word steps take only well-formed
// postings and leave anything else to posting, so every posting of a
// block is decoded and checked, and a corrupt block fails each kernel
// with the error class DecodePostings reports (FuzzPostingKernels pins
// both).

const (
	contBits = 0x8080808080808080 // the continuation bit of every byte
	gapBits  = 0x0080008000800080 // bit 7 of bytes 0, 2, 4 and 6: a quad's gap lanes
	lowBits  = 0x7F7F7F7F7F7F7F7F
	// quadMaxLast is the largest id a quad may continue from: four gaps
	// of at most 0x7F cannot carry it past 32 bits.
	quadMaxLast = math.MaxUint32 - 4*0x7F
)

// word returns the 8 bytes at buf[i:] as one little-endian word, zero
// bytes standing in for those past the end, and whether all 8 are buf's.
func word(buf []byte, i int) (w uint64, full bool) {
	if len(buf)-i >= 8 {
		return binary.LittleEndian.Uint64(buf[i:]), true
	}
	return tailWord(buf[i:]), false
}

// tailWord is word for a block's last 7 bytes or fewer; kept out of line
// so that word's common case stays a bounds check and a load.
func tailWord(buf []byte) uint64 {
	var b [8]byte
	copy(b[:], buf)
	return binary.LittleEndian.Uint64(b[:])
}

// quad reports whether w is four postings with single-byte gaps and
// lengths — gap j in byte 2j, length j in byte 2j+1 — none of whose gaps
// is zero, continuing an id from last that four such gaps cannot carry
// past 32 bits.
func quad(w uint64, last uint32) bool {
	// With no continuation bit set every byte is below 0x80, so adding
	// 0x7F to each carries into no neighbour and sets bit 7 exactly where
	// the byte is nonzero.
	return w&contBits == 0 && (w+lowBits)&gapBits == gapBits && last <= quadMaxLast
}

// wordPosting decodes the posting at the head of w, continuing the id
// from last. It takes only a posting whose gap takes one or two bytes and
// is not zero, whose length takes one byte and whose id stays within 32
// bits; for anything else n is 0. It branches on the gap's continuation
// bit rather than computing the width, so that on a run of like postings
// the next step's position is predicted, not waited for.
func wordPosting(w uint64, last uint32) (id, length uint32, n int) {
	gap, v := uint32(w)&0x7F, w>>8
	n = 2
	if w&0x80 != 0 {
		// The gap's second byte must end it: its continuation bit joins
		// the length byte's in v's bit 7.
		gap |= uint32(w>>1) & 0x3F80
		v, n = w>>16|w>>8&0x80, 3
	}
	if id = last + gap; v&0x80 != 0 || id <= last {
		return 0, 0, 0
	}
	return id, uint32(v) & 0x7F, n
}

// slowPosting decodes the posting at the head of buf, whose first bytes w
// holds as word returned them, when wordPosting did not take it: a
// posting that ends within w and whose gap and length take at most four
// bytes each — a block's head, whose gap is its first id — is read from
// w, anything else by posting.
func slowPosting(buf []byte, w uint64, last uint32) (id, length uint32, n int, err error) {
	ends := ^w & contBits // bit 7 of each byte that ends a value
	g := bits.TrailingZeros64(ends)>>3 + 1
	n = bits.TrailingZeros64(ends&(ends-1))>>3 + 1
	if g <= 4 && n-g <= 4 && n <= len(buf) {
		if id = last + field(w, g); id > last {
			return id, field(w>>(8*g), n-g), n, nil
		}
	}
	return posting(buf, last)
}

// field returns the value v-byte coded in the low n (1 to 4) bytes of x.
func field(x uint64, n int) uint32 {
	x &= (1<<(8*n) - 1) & lowBits
	return uint32(x&0x7F | x>>1&0x3F80 | x>>2&0x1FC000 | x>>3&0xFE00000)
}

// posting decodes the posting at the head of buf (which must not be
// empty), continuing the id from last, and returns its id, its length and
// its width in bytes. Its checks run in DecodePostings' order: the gap's
// encoding, the length's, then the gap's value.
func posting(buf []byte, last uint32) (id, length uint32, n int, err error) {
	gap, n, err := Uint32(buf)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("vbyte: posting id gap: %w", err)
	}
	length, m, err := Uint32(buf[n:])
	if err != nil {
		return 0, 0, 0, fmt.Errorf("vbyte: posting length: %w", err)
	}
	if gap == 0 {
		return 0, 0, 0, fmt.Errorf("%w: zero gap", ErrNonMonotonic)
	}
	if last+gap < last {
		return 0, 0, 0, fmt.Errorf("%w: id %d + gap %d overflows 32 bits", ErrNonMonotonic, last, gap)
	}
	return last + gap, length, n + m, nil
}

// marked reports whether bit id-base of marks is set; ids below base and
// beyond the bitmap are not.
func marked(marks []uint64, base, id uint32) bool {
	off := id - base
	k := uint(off >> 6)
	return k < uint(len(marks)) && marks[k]&(1<<(off&63)) != 0
}

// AppendMarked appends to dst, ascending, the ids of buf's postings
// (delta-coded against prev) whose bit id-base is set in marks. Every
// posting is decoded and checked; on a corrupt block it returns nil and
// the error DecodePostings would.
func AppendMarked(dst []uint32, buf []byte, prev uint32, marks []uint64, base uint32) ([]uint32, error) {
	last := prev
	for i := 0; i < len(buf); {
		w, full := word(buf, i)
		if full && quad(w, last) {
			id0 := last + uint32(w&0xFF)
			id1 := id0 + uint32(w>>16&0xFF)
			id2 := id1 + uint32(w>>32&0xFF)
			id3 := id2 + uint32(w>>48&0xFF)
			if marked(marks, base, id0) {
				dst = append(dst, id0)
			}
			if marked(marks, base, id1) {
				dst = append(dst, id1)
			}
			if marked(marks, base, id2) {
				dst = append(dst, id2)
			}
			if marked(marks, base, id3) {
				dst = append(dst, id3)
			}
			last, i = id3, i+8
			continue
		}
		id, _, n := wordPosting(w, last)
		if n == 0 || n > len(buf)-i {
			var err error
			if id, _, n, err = slowPosting(buf[i:], w, last); err != nil {
				return nil, err
			}
		}
		if marked(marks, base, id) {
			dst = append(dst, id)
		}
		last, i = id, i+n
	}
	return dst, nil
}

// AppendIDs appends to dst, ascending, the ids of buf's postings
// (delta-coded against prev) whose length lies in [minLen, maxLen]. Every
// posting is decoded and checked; on a corrupt block it returns nil and
// the error DecodePostings would.
func AppendIDs(dst []uint32, buf []byte, prev, minLen, maxLen uint32) ([]uint32, error) {
	last := prev
	for i := 0; i < len(buf); {
		w, full := word(buf, i)
		if full && quad(w, last) {
			id0 := last + uint32(w&0xFF)
			id1 := id0 + uint32(w>>16&0xFF)
			id2 := id1 + uint32(w>>32&0xFF)
			id3 := id2 + uint32(w>>48&0xFF)
			if l := uint32(w >> 8 & 0xFF); l >= minLen && l <= maxLen {
				dst = append(dst, id0)
			}
			if l := uint32(w >> 24 & 0xFF); l >= minLen && l <= maxLen {
				dst = append(dst, id1)
			}
			if l := uint32(w >> 40 & 0xFF); l >= minLen && l <= maxLen {
				dst = append(dst, id2)
			}
			if l := uint32(w >> 56); l >= minLen && l <= maxLen {
				dst = append(dst, id3)
			}
			last, i = id3, i+8
			continue
		}
		id, l, n := wordPosting(w, last)
		if n == 0 || n > len(buf)-i {
			var err error
			if id, l, n, err = slowPosting(buf[i:], w, last); err != nil {
				return nil, err
			}
		}
		if l >= minLen && l <= maxLen {
			dst = append(dst, id)
		}
		last, i = id, i+n
	}
	return dst, nil
}

// AppendPostingsAfter appends to dst, ascending, the postings of buf
// (delta-coded against prev) whose id exceeds after and whose length is
// at most maxLen, and returns last, the larger of after and the block's
// last id (prev for an empty block): superset's gather, which reads
// overlapping blocks of one list and keeps each posting once, passes
// last back as the next block's after. Every posting is decoded and
// checked; on a corrupt block it returns nil and the error
// DecodePostings would.
//
// Which postings the length bound keeps follows no pattern a branch
// predictor could learn, so each posting is written to dst's spare
// capacity unconditionally and kept by advancing the length by keep.
func AppendPostingsAfter(dst []Posting, buf []byte, prev, after, maxLen uint32) ([]Posting, uint32, error) {
	last := prev
	for i := 0; i < len(buf); {
		w, full := word(buf, i)
		if full && quad(w, last) {
			id0 := last + uint32(w&0xFF)
			id1 := id0 + uint32(w>>16&0xFF)
			id2 := id1 + uint32(w>>32&0xFF)
			id3 := id2 + uint32(w>>48&0xFF)
			l0, l1, l2, l3 := uint32(w>>8&0xFF), uint32(w>>24&0xFF), uint32(w>>40&0xFF), uint32(w>>56)
			n := len(dst)
			dst = slices.Grow(dst, 4)
			out := dst[n : n+4]
			k := keep(id0, l0, after, maxLen)
			out[0] = Posting{ID: id0, Length: l0}
			out[k] = Posting{ID: id1, Length: l1}
			k += keep(id1, l1, after, maxLen)
			out[k] = Posting{ID: id2, Length: l2}
			k += keep(id2, l2, after, maxLen)
			out[k] = Posting{ID: id3, Length: l3}
			k += keep(id3, l3, after, maxLen)
			dst = dst[:n+k]
			last, i = id3, i+8
			continue
		}
		id, l, n := wordPosting(w, last)
		if n == 0 || n > len(buf)-i {
			var err error
			if id, l, n, err = slowPosting(buf[i:], w, last); err != nil {
				return nil, 0, err
			}
		}
		dst = append(dst, Posting{ID: id, Length: l})
		dst = dst[:len(dst)-1+keep(id, l, after, maxLen)]
		last, i = id, i+n
	}
	return dst, max(after, last), nil
}

// keep is 1 if id > after and l <= maxLen, else 0, without a branch: in
// 64 bits, after-id borrows into the sign bit exactly when id > after,
// and maxLen-l exactly when l > maxLen.
func keep(id, l, after, maxLen uint32) int {
	return int((uint64(after)-uint64(id))>>63) &^ int((uint64(maxLen)-uint64(l))>>63)
}

// AppendMatches appends to dst, ascending, the members of cands (sorted
// ascending) that have a posting in buf (delta-coded against prev): it
// marks cands in the bitmap *marks, based at cands[0] and grown as
// needed, runs AppendMarked, and leaves *marks all zero again. dst may
// share cands' storage provided it ends at or before cands[0]'s slot —
// the in-place filter: every candidate is marked before the first write,
// and since ids strictly increase each candidate matches at most once, so
// the writes stay inside cands' own slots.
func AppendMatches(dst []uint32, buf []byte, prev uint32, cands []uint32, marks *[]uint64) ([]uint32, error) {
	if len(cands) == 0 {
		return AppendMarked(dst, buf, prev, nil, 0)
	}
	base := cands[0]
	words := int((cands[len(cands)-1]-base)>>6) + 1
	if len(*marks) < words {
		*marks = make([]uint64, words)
	}
	m := (*marks)[:words]
	// Clearing the span costs a store per 64 ids. Where that is more than
	// one per candidate and the candidates are few (a sparse block), only
	// the words they marked are cleared — noted while marking, since
	// AppendMarked may overwrite cands in place.
	var touched [16]uint32
	for j, c := range cands {
		off := c - base
		m[off>>6] |= 1 << (off & 63)
		if j < len(touched) {
			touched[j] = off >> 6
		}
	}
	dst, err := AppendMarked(dst, buf, prev, m, base)
	if words > len(cands) && len(cands) <= len(touched) {
		for _, w := range touched[:len(cands)] {
			m[w] = 0
		}
	} else {
		clear(m)
	}
	return dst, err
}
