// Package dataset models collections of set-valued records — the database
// D of the paper (§2): each record has a unique id and a set-valued
// attribute drawn from a finite vocabulary I. It also provides the data
// generators used by the experiments: the synthetic Zipfian generator of
// §5 and statistical twins of the two UCI KDD logs (msweb, msnbc) that the
// paper evaluates on.
package dataset

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"slices"
)

// Item is a vocabulary element, identified by a dense uint32 in
// [0, DomainSize).
type Item = uint32

// Record is one database entry: a 1-based id plus its set, kept sorted
// ascending by item id with no duplicates.
type Record struct {
	ID  uint32
	Set []Item
}

// Dataset is an in-memory collection of records over a fixed vocabulary.
//
// The records' sets lie end to end in chunks of items, a set never split
// between two; where a record's set lies is kept as a running count of
// items, not as a slice header. A collection thus costs its items plus
// four bytes a record (and a few bytes a chunk), and the garbage
// collector scans one pointer per chunk, not one per record.
type Dataset struct {
	domainSize int
	labels     []string // optional item labels, len 0 or domainSize

	// chunks hold the sets in record order; there is always one. Add
	// appends a set to the last chunk while its capacity lasts and opens
	// a new one otherwise, so a collection costs one allocation per
	// arenaChunk items, not one per record.
	chunks [][]Item
	// starts[c] is the number of items stored before chunks[c]; strictly
	// ascending, since only the last chunk can be empty.
	starts []uint32
	// ends[i] is the number of items in records 0..i: record i's set is
	// items ends[i-1] (0 for the first) up to ends[i].
	ends []uint32
}

// arenaChunk is the size, in items, of one record arena chunk (64 KiB).
const arenaChunk = 1 << 14

// New returns an empty dataset over items [0, domainSize).
func New(domainSize int) *Dataset {
	if domainSize < 0 {
		domainSize = 0
	}
	return &Dataset{domainSize: domainSize, chunks: [][]Item{nil}, starts: []uint32{0}}
}

// DomainSize returns |I|.
func (d *Dataset) DomainSize() int { return d.domainSize }

// Len returns |D|.
func (d *Dataset) Len() int { return len(d.ends) }

// items returns the number of items stored before record i.
func (d *Dataset) items(i int) uint32 {
	if i == 0 {
		return 0
	}
	return d.ends[i-1]
}

// chunkOf returns the chunk that holds the items from position s on: the
// last one starting at or before s. A chunk of arenaChunk items is full
// but for less than a set, so in a collection of such chunks the one at
// s/arenaChunk starts at or before s, and the answer is mostly it or the
// next: that window is tried first, the whole range otherwise. The
// search halves its range without branching on the comparison, which a
// random s would mispredict half the time: the step is masked by the
// difference's sign instead.
func (d *Dataset) chunkOf(s uint32) int {
	c, n := 0, len(d.starts) // the answer is in [c, c+n)
	if g := int(s / arenaChunk); g < n && d.starts[g] <= s {
		c, n = g, n-g
		if n > 2 && d.starts[g+2] > s {
			n = 2
		}
	}
	for n > 1 {
		half := n / 2
		c += half &^ int((int64(s)-int64(d.starts[c+half]))>>63)
		n -= half
	}
	return c
}

// Record returns the i-th record (0-based position, not id). Its set
// shares the dataset's storage, and its capacity is its length, so
// appending to one record's set never writes into another's; callers
// must not write to it.
func (d *Dataset) Record(i int) Record {
	s := d.items(i)
	c := d.chunkOf(s)
	a, b := s-d.starts[c], d.ends[i]-d.starts[c]
	return Record{ID: uint32(i + 1), Set: d.chunks[c][a:b:b]}
}

// Records yields every record in order, with its 0-based position.
func (d *Dataset) Records() iter.Seq2[int, Record] { return d.Range(0, d.Len()) }

// Range yields records lo up to hi in order, with their 0-based
// positions: one search for the chunk of the first, then a walk. The
// bounds are fixed when Range is called, so records added while it runs
// are not yielded.
func (d *Dataset) Range(lo, hi int) iter.Seq2[int, Record] {
	return func(yield func(int, Record) bool) {
		s := d.items(lo)
		for c, i := d.chunkOf(s), lo; i < hi; c++ {
			chunk, base := d.chunks[c], d.starts[c]
			last := c+1 == len(d.starts)
			for ; i < hi && (last || s < d.starts[c+1]); i++ {
				e := d.ends[i]
				if !yield(i, Record{ID: uint32(i + 1), Set: chunk[s-base : e-base : e-base]}) {
					return
				}
				s = e
			}
		}
	}
}

// ErrItemOutOfDomain reports a set item outside the vocabulary.
var ErrItemOutOfDomain = errors.New("dataset: item outside domain")

// errTooManyItems reports a collection past what ends can count.
var errTooManyItems = errors.New("dataset: more than 2^32-1 items")

// Canonical returns the canonical form of an item set — a sorted,
// duplicate-free copy (the caller's slice is untouched) — or an error
// wrapping ErrItemOutOfDomain when an item falls outside
// [0, domainSize). Every record and every IF/UBT query set enters the
// system through it; the OIF query path canonicalises in rank space
// instead (core.prepRanks).
func Canonical(set []Item, domainSize int) ([]Item, error) {
	return appendCanonical(make([]Item, 0, len(set)), set, domainSize)
}

// appendCanonical appends the canonical form of set to dst — sorted,
// duplicates dropped, checked against the domain — and returns the
// extended slice; set must not share dst's spare capacity. On an error
// it returns nil, and dst's length is what it was, so nothing appended
// to dst survives.
func appendCanonical(dst, set []Item, domainSize int) ([]Item, error) {
	start := len(dst)
	dst = append(dst, set...)
	slices.Sort(dst[start:])
	dst = dst[:start+len(slices.Compact(dst[start:]))]
	if n := len(dst); n > start && int(dst[n-1]) >= domainSize {
		return nil, fmt.Errorf("%w: item %d, domain %d", ErrItemOutOfDomain, dst[n-1], domainSize)
	}
	return dst, nil
}

// Add appends a record with the given set and returns its id. The set is
// canonicalised (see Canonical) into the last chunk, or into a new one
// when it does not fit. Empty sets are allowed (the paper's order places
// the empty set first, and our OIF indexes it in a dedicated metadata
// region). A set that fails leaves the dataset as it was.
func (d *Dataset) Add(set []Item) (uint32, error) {
	total := d.items(len(d.ends))
	last := len(d.chunks) - 1
	buf := d.chunks[last]
	fresh := cap(buf)-len(buf) < len(set)
	if fresh {
		buf = make([]Item, 0, max(arenaChunk, len(set)))
	}
	n := len(buf)
	buf, err := appendCanonical(buf, set, d.domainSize)
	if err != nil {
		return 0, err
	}
	added := len(buf) - n
	if uint64(total)+uint64(added) > math.MaxUint32 {
		return 0, errTooManyItems
	}
	if fresh {
		d.open(buf, total)
	} else {
		d.chunks[last] = buf
	}
	d.ends = append(d.ends, total+uint32(added))
	return uint32(len(d.ends)), nil
}

// open makes buf, which starts at item position total, the last chunk.
// An empty last chunk is replaced rather than kept behind it.
func (d *Dataset) open(buf []Item, total uint32) {
	if last := len(d.chunks) - 1; len(d.chunks[last]) == 0 {
		d.chunks[last] = buf
		return
	}
	d.chunks = append(d.chunks, buf)
	d.starts = append(d.starts, total)
}

// Grow makes room for records more records whose sets hold items more
// items in all, so that that many Adds allocate nothing: a caller that
// knows the size of what it is about to add saves the record ends'
// growth and the arena's chunks. The items of a set that collapses under
// Canonical count in full.
func (d *Dataset) Grow(records, items int) {
	d.ends = slices.Grow(d.ends, records)
	if last := d.chunks[len(d.chunks)-1]; cap(last)-len(last) < items {
		d.open(make([]Item, 0, items), d.items(len(d.ends)))
	}
}

// SetLabels attaches human-readable item labels (len must be DomainSize).
func (d *Dataset) SetLabels(labels []string) error {
	if len(labels) != d.domainSize {
		return fmt.Errorf("dataset: %d labels for domain %d", len(labels), d.domainSize)
	}
	d.labels = labels
	return nil
}

// Label returns the label of item it, or its decimal form if unlabeled.
func (d *Dataset) Label(it Item) string {
	if int(it) < len(d.labels) {
		return d.labels[it]
	}
	return fmt.Sprintf("%d", it)
}

// Support returns s(o) for every item: how many records contain it
// (Eq. 1's support function).
func (d *Dataset) Support() []int64 {
	sup := make([]int64, d.domainSize)
	for _, chunk := range d.chunks {
		for _, it := range chunk {
			sup[it]++
		}
	}
	return sup
}

// Stats summarises the collection.
type Stats struct {
	NumRecords    int
	DomainSize    int
	TotalPostings int64   // sum of cardinalities
	AvgCardinal   float64 // the paper's "average record length l"
	MaxCardinal   int
	EmptyRecords  int
}

// ComputeStats scans the dataset once.
func (d *Dataset) ComputeStats() Stats {
	s := Stats{NumRecords: d.Len(), DomainSize: d.domainSize}
	prev := uint32(0)
	for _, end := range d.ends {
		n := int(end - prev)
		s.MaxCardinal = max(s.MaxCardinal, n)
		if n == 0 {
			s.EmptyRecords++
		}
		prev = end
	}
	s.TotalPostings = int64(prev)
	if s.NumRecords > 0 {
		s.AvgCardinal = float64(s.TotalPostings) / float64(s.NumRecords)
	}
	return s
}

// Contains reports whether record r's set contains item it.
func (r Record) Contains(it Item) bool {
	_, ok := slices.BinarySearch(r.Set, it)
	return ok
}

// ContainsAll reports whether r's set is a superset of qs (qs must be
// sorted ascending).
func (r Record) ContainsAll(qs []Item) bool {
	i := 0
	for _, q := range qs {
		for i < len(r.Set) && r.Set[i] < q {
			i++
		}
		if i == len(r.Set) || r.Set[i] != q {
			return false
		}
		i++
	}
	return true
}

// SubsetOf reports whether r's set is a subset of qs (sorted ascending).
func (r Record) SubsetOf(qs []Item) bool {
	j := 0
	for _, it := range r.Set {
		for j < len(qs) && qs[j] < it {
			j++
		}
		if j == len(qs) || qs[j] != it {
			return false
		}
		j++
	}
	return true
}

// EqualSet reports whether r's set equals qs (sorted ascending).
func (r Record) EqualSet(qs []Item) bool {
	if len(r.Set) != len(qs) {
		return false
	}
	for i := range qs {
		if r.Set[i] != qs[i] {
			return false
		}
	}
	return true
}
