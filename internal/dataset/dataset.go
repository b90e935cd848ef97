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
type Dataset struct {
	domainSize int
	records    []Record
	labels     []string // optional item labels, len 0 or domainSize

	// arena is the open chunk records' sets are canonicalised into: Add
	// appends a set at its end and keeps a capacity-limited sub-slice, so
	// a collection costs one allocation per arenaChunk items, not one per
	// record. A full chunk stays alive through its records' sets.
	arena []Item
}

// arenaChunk is the size, in items, of one record arena chunk (64 KiB).
const arenaChunk = 1 << 14

// New returns an empty dataset over items [0, domainSize).
func New(domainSize int) *Dataset {
	if domainSize < 0 {
		domainSize = 0
	}
	return &Dataset{domainSize: domainSize}
}

// DomainSize returns |I|.
func (d *Dataset) DomainSize() int { return d.domainSize }

// Len returns |D|.
func (d *Dataset) Len() int { return len(d.records) }

// Record returns the i-th record (0-based position, not id).
func (d *Dataset) Record(i int) Record { return d.records[i] }

// Records returns the backing record slice; callers must not mutate it.
func (d *Dataset) Records() []Record { return d.records }

// ErrItemOutOfDomain reports a set item outside the vocabulary.
var ErrItemOutOfDomain = errors.New("dataset: item outside domain")

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
// canonicalised (see Canonical) into the record arena, and the record
// keeps a sub-slice of it whose capacity is its length, so appending to
// one record's set never writes into another's. Empty sets are allowed
// (the paper's order places the empty set first, and our OIF indexes it
// in a dedicated metadata region). A set that fails leaves the dataset
// as it was.
func (d *Dataset) Add(set []Item) (uint32, error) {
	buf := d.arena
	if cap(buf)-len(buf) < len(set) {
		buf = make([]Item, 0, max(arenaChunk, len(set)))
	}
	start := len(buf)
	buf, err := appendCanonical(buf, set, d.domainSize)
	if err != nil {
		return 0, err
	}
	d.arena = buf
	id := uint32(len(d.records) + 1)
	d.records = append(d.records, Record{ID: id, Set: buf[start:len(buf):len(buf)]})
	return id, nil
}

// Grow makes room for records more records whose sets hold items more
// items in all, so that that many Adds allocate nothing: a caller that
// knows the size of what it is about to add saves the record slice's
// growth and the arena's chunks. The items of a set that collapses under
// Canonical count in full.
func (d *Dataset) Grow(records, items int) {
	d.records = slices.Grow(d.records, records)
	if cap(d.arena)-len(d.arena) < items {
		d.arena = make([]Item, 0, items)
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
	for _, r := range d.records {
		for _, it := range r.Set {
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
	s := Stats{NumRecords: len(d.records), DomainSize: d.domainSize}
	for _, r := range d.records {
		s.TotalPostings += int64(len(r.Set))
		if len(r.Set) > s.MaxCardinal {
			s.MaxCardinal = len(r.Set)
		}
		if len(r.Set) == 0 {
			s.EmptyRecords++
		}
	}
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
