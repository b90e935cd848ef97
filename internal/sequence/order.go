// Package sequence implements the ordering machinery of the paper's §3:
// the frequency-based total order <_D over items (Eq. 1), sequence forms
// sf(v) (Def. 1), lexicographic comparison of sequence forms, the
// order-preserving byte encoding used as B-tree block tags, and the global
// re-ordering of records with dense id reassignment.
package sequence

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"repro/internal/dataset"
)

// Rank is an item's position in the <_D order: rank 0 is the smallest
// item under <_D, i.e. the most frequent one.
type Rank = uint32

// Order is the total order <_D of Eq. 1: items sorted by support
// descending, ties broken by ascending item id (the paper breaks ties
// alphabetically; items here are numeric).
type Order struct {
	rankOf []Rank         // item -> rank
	itemOf []dataset.Item // rank -> item
}

// NewOrder builds the order from per-item supports (index = item id).
func NewOrder(support []int64) *Order {
	n := len(support)
	itemOf := make([]dataset.Item, n)
	for i := range itemOf {
		itemOf[i] = dataset.Item(i)
	}
	sort.SliceStable(itemOf, func(a, b int) bool {
		ia, ib := itemOf[a], itemOf[b]
		if support[ia] != support[ib] {
			return support[ia] > support[ib]
		}
		return ia < ib
	})
	rankOf := make([]Rank, n)
	for r, it := range itemOf {
		rankOf[it] = Rank(r)
	}
	return &Order{rankOf: rankOf, itemOf: itemOf}
}

// OrderFromDataset counts supports and builds the order in one step.
func OrderFromDataset(d *dataset.Dataset) *Order {
	return NewOrder(d.Support())
}

// NewOrderFromItems reconstructs an order from its rank->item table (as
// persisted by an index snapshot). The table must be a permutation of
// [0, len).
func NewOrderFromItems(itemOf []dataset.Item) (*Order, error) {
	rankOf := make([]Rank, len(itemOf))
	seen := make([]bool, len(itemOf))
	for r, it := range itemOf {
		if int(it) >= len(itemOf) || seen[it] {
			return nil, fmt.Errorf("sequence: itemOf is not a permutation at rank %d", r)
		}
		seen[it] = true
		rankOf[it] = Rank(r)
	}
	cp := make([]dataset.Item, len(itemOf))
	copy(cp, itemOf)
	return &Order{rankOf: rankOf, itemOf: cp}, nil
}

// Items returns the rank->item table (for persistence). Callers must not
// mutate it.
func (o *Order) Items() []dataset.Item { return o.itemOf }

// DomainSize returns |I|.
func (o *Order) DomainSize() int { return len(o.rankOf) }

// Rank returns the rank of item it.
func (o *Order) Rank(it dataset.Item) (Rank, error) {
	if int(it) >= len(o.rankOf) {
		return 0, fmt.Errorf("sequence: %w: item %d, domain %d", dataset.ErrItemOutOfDomain, it, len(o.rankOf))
	}
	return o.rankOf[it], nil
}

// Item returns the item at rank r.
func (o *Order) Item(r Rank) dataset.Item { return o.itemOf[r] }

// MaxRank returns the greatest rank (the least frequent item), or 0 for an
// empty domain.
func (o *Order) MaxRank() Rank {
	if len(o.rankOf) == 0 {
		return 0
	}
	return Rank(len(o.rankOf) - 1)
}

// AppendSet appends the sorted item set of a sequence form to dst: pass
// a recycled buffer's [:0] to convert without allocating.
func (o *Order) AppendSet(dst []dataset.Item, sf []Rank) []dataset.Item {
	start := len(dst)
	for _, r := range sf {
		dst = append(dst, o.itemOf[r])
	}
	slices.Sort(dst[start:])
	return dst
}

// Compare lexicographically compares two sequence forms under <_D: the
// empty sequence is smallest and a proper prefix precedes its extensions.
func Compare(a, b []Rank) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// Tag encoding. Tags are embedded in composite B-tree keys
// (rank‖tag‖recordID), so they must be (a) self-delimiting — a parser must
// find where the tag ends and the id begins — and (b) order-preserving
// under bytewise comparison even when the following id bytes differ.
// A naive fixed-width concatenation fails (b): the id bytes of a short tag
// would be compared against rank bytes of a longer one. We therefore
// prefix every element with a 0x01 marker and terminate the tag with
// 0x00: a proper prefix ends in 0x00 where its extension has 0x01, so the
// prefix sorts first, exactly matching Compare.
const (
	tagElem = 0x01 // precedes each 4-byte big-endian rank
	tagEnd  = 0x00 // terminates the tag

	// TagElemWidth is the encoded size of one rank element.
	TagElemWidth = 5
)

// TagLen returns the encoded size of a sequence of n ranks.
func TagLen(n int) int { return n*TagElemWidth + 1 }

// AppendTag appends the order-preserving, self-delimiting encoding of sf.
// Bytewise comparison of two encodings equals Compare on the sequences,
// including the prefix rule — the property the OIF's B-tree keys rely on.
func AppendTag(dst []byte, sf []Rank) []byte {
	for _, r := range sf {
		dst = append(dst, tagElem)
		dst = binary.BigEndian.AppendUint32(dst, r)
	}
	return append(dst, tagEnd)
}

// TagFramed reports whether b has the length and the terminator of
// exactly one encoded tag — the O(1) half of AppendDecodedTag's
// validation, for readers that decode the elements only when they need
// them.
func TagFramed(b []byte) bool {
	return len(b)%TagElemWidth == 1 && b[len(b)-1] == tagEnd
}

// AppendDecodedTag parses one tag from the front of b into a reusable
// slice: the decoded ranks are appended to dst (pass a recycled buffer's
// [:0] to decode without allocating) and returned with the number of
// bytes consumed (terminator included). It is the form the OIF's block
// cursor uses wherever a scan reads a block's tag.
func AppendDecodedTag(dst []Rank, b []byte) ([]Rank, int, error) {
	pos := 0
	for {
		if pos >= len(b) {
			return nil, 0, fmt.Errorf("sequence: unterminated tag")
		}
		switch b[pos] {
		case tagEnd:
			return dst, pos + 1, nil
		case tagElem:
			if pos+TagElemWidth > len(b) {
				return nil, 0, fmt.Errorf("sequence: truncated tag element")
			}
			dst = append(dst, binary.BigEndian.Uint32(b[pos+1:]))
			pos += TagElemWidth
		default:
			return nil, 0, fmt.Errorf("sequence: bad tag byte 0x%02x", b[pos])
		}
	}
}
