// Package overlay is the §4.4 update overlay both updatable indexes
// (the OIF of internal/core, the inverted file of internal/invfile) lay
// over their disk structures: the memory-resident delta of records
// inserted since the last batch merge, and the tombstone set masking
// deleted ids. How pending records and tombstones are held,
// canonicalised, matched against a query, masked out of disk-side
// answers, frozen for a parallel reader and serialised is decided here
// once; the indexes differ only in their MergeDelta — a full re-sort
// for the OIF, a list append for the IF, which is the 3-5x update-cost
// gap the paper reports.
//
// The delta is the memory-resident inverted file the paper sketches:
// beside the pending records the overlay keeps, per item, the ascending
// positions of the pending records that hold it, and of those the
// records whose smallest item it is. A subset or equality query walks
// only the shortest list among its items and verifies each candidate
// against the record; a superset query walks the smallest-item lists of
// its own items, so it meets each pending record at most once. The
// lists are derived state — appended to by Insert, dropped by Merged,
// rebuilt by ReadSections, never serialised — so what a query pays
// while inserts are pending follows its rarest item, not the merge
// interval the operator chose.
//
// The tombstones are one bitmap over the id space, in chunks of 4 096
// ids, so masking an answer costs one bit test per id however many ids
// were ever deleted. A Delete never edits a chunk or the spine of chunk
// pointers in place: it copies the spine and the one chunk it sets a
// bit in, about 1 KB at 200 000 ids where a copy of the whole bitmap
// was 25 KB.
package overlay

import (
	"fmt"
	"io"
	"math/bits"
	"slices"

	"repro/internal/dataset"
	"repro/internal/snapio"
)

// Pred is the relation a pending record must have to the query set.
type Pred int

const (
	ContainsAll Pred = iota // record ⊇ query (subset queries)
	Equal                   // record = query
	SubsetOf                // record ⊆ query (superset queries)
)

// Overlay holds one index's unmerged updates; the zero value is empty.
// Ids live in the index's original-id space: the i-th pending record
// carries id merged+i+1, where merged — the number of records in the
// disk structures — is passed in by the index rather than kept twice.
//
// An Overlay belongs to one writer. View gives a parallel reader a copy
// that later Inserts and Deletes never disturb: pending and every
// posting list are append-only between merges, and Delete replaces the
// tombstone bitmap's spine and the chunk it changes instead of editing
// them.
type Overlay struct {
	pending []dataset.Record // the delta, ids ascending
	dead    idSet            // tombstoned ids; immutable once attached
	deleted int              // ids in dead
	// lists[item] holds item's posting lists, empties the positions of
	// the empty sets (which no list reaches). lists is nil until the
	// first non-empty set arrives.
	lists   []postings
	empties []uint32
	// dirty records that some tombstoned postings are still physically
	// present (on disk or in pending) for the next merge to fold out.
	// The ids themselves stay tombstoned forever: ids are never reused.
	dirty bool
}

// postings are one item's lists of ascending pending positions: of the
// records containing the item, and of those whose smallest item it is.
type postings struct{ all, heads []uint32 }

// idSet is a set of ids as a bitmap in chunks of chunkIDs ids: id i is
// bit i%64 of word i%chunkIDs/64 of chunk i/chunkIDs. A chunk holding no
// id may be the shared noChunk. Once an Overlay holds a set, neither its
// spine nor its chunks are written again (see with).
type idSet []*idChunk

// idChunk is chunkIDs bits of an idSet, 512 bytes.
type idChunk [chunkIDs / 64]uint64

const chunkIDs = 1 << 12

// noChunk stands for every chunk that holds no id; it is never written.
var noChunk idChunk

func (s idSet) has(id uint32) bool {
	c := id / chunkIDs
	return int(c) < len(s) && s[c][id>>6%(chunkIDs/64)]&(1<<(id&63)) != 0
}

// with returns s plus id, sharing every chunk of s but the one id falls
// in: the spine and that chunk are copies, so s itself, and any view
// that holds it, is unchanged.
func (s idSet) with(id uint32) idSet {
	c := int(id / chunkIDs)
	out := make(idSet, max(len(s), c+1))
	copy(out, s)
	for i := len(s); i < c; i++ {
		out[i] = &noChunk
	}
	ch := new(idChunk)
	if c < len(s) {
		*ch = *s[c]
	}
	ch[id>>6%(chunkIDs/64)] |= 1 << (id & 63)
	out[c] = ch
	return out
}

// appendIDs appends the ids of s to dst, ascending.
func (s idSet) appendIDs(dst []uint32) []uint32 {
	for c, ch := range s {
		for w, word := range ch {
			for ; word != 0; word &= word - 1 {
				dst = append(dst, uint32(c*chunkIDs+w<<6+bits.TrailingZeros64(word)))
			}
		}
	}
	return dst
}

// Insert canonicalises set (dataset.Canonical), appends it to the delta
// and returns its id, the next after the merged and pending records.
func (o *Overlay) Insert(set []dataset.Item, domainSize, merged int) (uint32, error) {
	cp, err := dataset.Canonical(set, domainSize)
	if err != nil {
		return 0, err
	}
	id := uint32(merged + len(o.pending) + 1)
	o.add(dataset.Record{ID: id, Set: cp}, domainSize)
	return id, nil
}

// add appends r, whose set is canonical over domainSize items, to the
// delta and posts its position on the list of every item it holds.
func (o *Overlay) add(r dataset.Record, domainSize int) {
	pos := uint32(len(o.pending))
	o.pending = append(o.pending, r)
	if len(r.Set) == 0 {
		o.empties = append(o.empties, pos)
		return
	}
	if o.lists == nil {
		o.lists = make([]postings, domainSize)
	}
	for _, it := range r.Set {
		o.lists[it].all = append(o.lists[it].all, pos)
	}
	head := &o.lists[r.Set[0]]
	head.heads = append(head.heads, pos)
}

// Delete tombstones id, merged or pending: it vanishes from every answer
// at once, the next merge removes its postings, and the id is never
// handed out again. An unknown or already-deleted id is an error.
func (o *Overlay) Delete(id uint32, merged int) error {
	if n := merged + len(o.pending); id == 0 || int(id) > n {
		return fmt.Errorf("overlay: delete of unknown record %d (have %d)", id, n)
	}
	if o.dead.has(id) {
		return fmt.Errorf("overlay: record %d already deleted", id)
	}
	// Copy-on-write keeps the bitmap immutable for live views.
	o.dead, o.deleted, o.dirty = o.dead.with(id), o.deleted+1, true
	return nil
}

// Dead reports whether id is tombstoned.
func (o *Overlay) Dead(id uint32) bool { return o.dead.has(id) }

// Deleted returns the number of tombstoned ids.
func (o *Overlay) Deleted() int { return o.deleted }

// Len returns the number of pending records, tombstoned ones included
// (they keep their id slots).
func (o *Overlay) Len() int { return len(o.pending) }

// Pending returns the delta for a merge to fold in; read-only. The
// merge skips or blanks the records Dead reports.
func (o *Overlay) Pending() []dataset.Record { return o.pending }

// Dirty reports whether a merge has tombstoned postings to fold out.
func (o *Overlay) Dirty() bool { return o.dirty }

// list returns item's posting list, nil when no pending record holds it.
func (o *Overlay) list(item dataset.Item) []uint32 {
	if int(item) >= len(o.lists) {
		return nil
	}
	return o.lists[item].all
}

// candidates returns, ascending, the n pending positions whose records
// can contain q: the shortest posting list among q's items. Every
// record contains the empty set; then list is nil and the candidates
// are the positions 0..n-1 themselves (see pos).
func (o *Overlay) candidates(q []dataset.Item) (list []uint32, n int) {
	if len(q) == 0 {
		return nil, len(o.pending)
	}
	list = o.list(q[0])
	for _, it := range q[1:] {
		if l := o.list(it); len(l) < len(list) {
			list = l
		}
	}
	return list, len(list)
}

// pos returns the i-th position of a candidates sequence.
func pos(list []uint32, i int) int {
	if list == nil {
		return i
	}
	return int(list[i])
}

// AppendMatches appends, ascending, the ids of the live pending records
// related by pred to the canonical query set q.
func (o *Overlay) AppendMatches(dst []uint32, q []dataset.Item, pred Pred) []uint32 {
	if pred == SubsetOf {
		return o.appendSubsetsOf(dst, q)
	}
	list, n := o.candidates(q)
	if pred == Equal && len(q) == 0 {
		list, n = o.empties, len(o.empties)
	}
	for i := 0; i < n; i++ {
		r := o.pending[pos(list, i)]
		var ok bool
		if pred == Equal {
			ok = r.EqualSet(q)
		} else {
			ok = r.ContainsAll(q)
		}
		if ok && !o.Dead(r.ID) {
			dst = append(dst, r.ID)
		}
	}
	return dst
}

// appendSubsetsOf is AppendMatches(SubsetOf). A non-empty subset of q
// has its smallest item in q, so it is met exactly once, on that item's
// heads list, and verified against the rest of q only; the empty sets
// are on no list. The lists are visited in item order, hence the sort.
func (o *Overlay) appendSubsetsOf(dst []uint32, q []dataset.Item) []uint32 {
	start := len(dst)
	for _, p := range o.empties {
		if id := o.pending[p].ID; !o.Dead(id) {
			dst = append(dst, id)
		}
	}
	for i, it := range q {
		if int(it) >= len(o.lists) {
			break // q ascends: no later item has a list either
		}
		for _, p := range o.lists[it].heads {
			if r := o.pending[p]; r.SubsetOf(q[i:]) && !o.Dead(r.ID) {
				dst = append(dst, r.ID)
			}
		}
	}
	slices.Sort(dst[start:])
	return dst
}

// AppendMatchesWithin is AppendMatches(ContainsAll) restricted to the
// ids present in cands (sorted ascending) — the delta half of a
// candidate-restricted subset probe.
func (o *Overlay) AppendMatchesWithin(dst []uint32, q []dataset.Item, cands []uint32) []uint32 {
	list, n := o.candidates(q)
	for i := 0; i < n; i++ {
		r := o.pending[pos(list, i)]
		if !r.ContainsAll(q) || o.Dead(r.ID) {
			continue
		}
		if _, ok := slices.BinarySearch(cands, r.ID); ok {
			dst = append(dst, r.ID)
		}
	}
	return dst
}

// Mask drops the tombstoned ids from ids in place and returns the kept
// prefix: one bit test per id. With no tombstones it is a length test
// the caller inlines.
func (o *Overlay) Mask(ids []uint32) []uint32 {
	if len(o.dead) == 0 {
		return ids
	}
	return o.dead.mask(ids)
}

// mask keeps the ids of ids not in s. An answer's ids ascend, so they
// come in runs within one chunk: the chunk is looked up once per run,
// and inside it each id costs one bit test, as over a flat bitmap.
func (s idSet) mask(ids []uint32) []uint32 {
	kept := ids[:0]
	for i := 0; i < len(ids); {
		c, ch := ids[i]/chunkIDs, &noChunk
		if int(c) < len(s) {
			ch = s[c]
		}
		for ; i < len(ids) && ids[i]/chunkIDs == c; i++ {
			if id := ids[i]; ch[id>>6%(chunkIDs/64)]&(1<<(id&63)) == 0 {
				kept = append(kept, id)
			}
		}
	}
	return kept
}

// View returns the overlay frozen at its current extent, for a reader
// running in parallel with the writer. The writer only ever appends past
// the lengths the view holds — of pending, of empties, and of each
// posting list, whose headers the view therefore owns a copy of — so
// the view reads nothing the writer writes. A view is for reading; the
// capacity cap only makes a stray append to its records reallocate
// instead of writing into shared storage.
func (o *Overlay) View() Overlay {
	v := *o
	v.pending = o.pending[:len(o.pending):len(o.pending)]
	v.lists = slices.Clone(o.lists)
	return v
}

// Merged resets the overlay after a batch merge folded every pending
// record and every tombstoned posting into the disk structures. The
// tombstones stay: they mask the id slots the merge left empty.
func (o *Overlay) Merged() { o.pending, o.lists, o.empties, o.dirty = nil, nil, nil, false }

// Layout is the order in which a snapshot format holds the overlay's
// two sections; each format fixed its own before the overlay existed.
type Layout int

const (
	RecordsFirst    Layout = iota // the OIF's (internal/core)
	TombstonesFirst               // the inverted file's (internal/invfile)
)

// WriteSections writes the overlay's two snapshot sections in layout's
// order. The pending-records section is a u64 count, then each record's
// id and length-prefixed item set; the tombstone section is the
// tombstoned ids, ascending, as one length-prefixed slice. The dirty
// flag travels in the format's own header word (see Dirty), because
// each snapshot format fixes its header before its sections.
func (o *Overlay) WriteSections(w io.Writer, layout Layout) error {
	first, second := o.writeRecords, o.writeTombstones
	if layout == TombstonesFirst {
		first, second = second, first
	}
	if err := first(w); err != nil {
		return err
	}
	return second(w)
}

func (o *Overlay) writeRecords(w io.Writer) error {
	if err := snapio.WriteU64(w, uint64(len(o.pending))); err != nil {
		return err
	}
	for _, r := range o.pending {
		if err := snapio.WriteU32(w, r.ID); err != nil {
			return err
		}
		if err := snapio.WriteU32Slice(w, r.Set); err != nil {
			return err
		}
	}
	return nil
}

func (o *Overlay) writeTombstones(w io.Writer) error {
	return snapio.WriteU32Slice(w, o.dead.appendIDs(make([]uint32, 0, o.deleted)))
}

// ReadSections replaces the overlay with the two sections WriteSections
// wrote in layout's order, over domainSize items and merged disk-side
// records, rebuilding the posting lists and setting the dirty flag the
// header carried. It refuses what Insert and Delete could not have
// produced, because the lists, the bitmap and the next merge index by
// both: a pending record out of id sequence, a set that is not strictly
// ascending or leaves the domain, and tombstones that are not strictly
// ascending ids of the merged and pending records.
func (o *Overlay) ReadSections(r io.Reader, layout Layout, domainSize, merged int, dirty bool) error {
	var fresh Overlay
	var dead []uint32
	first := func() error { return fresh.readRecords(r, domainSize, merged) }
	second := func() (err error) { dead, err = snapio.ReadU32Slice(r); return err }
	if layout == TombstonesFirst {
		first, second = second, first
	}
	if err := first(); err != nil {
		return err
	}
	if err := second(); err != nil {
		return err
	}
	// Checked before the bitmap is sized by the last id.
	n := merged + len(fresh.pending)
	for i, id := range dead {
		if id == 0 || int64(id) > int64(n) || i > 0 && id <= dead[i-1] {
			return fmt.Errorf("overlay: tombstone %d is zero, out of order or past the %d records", id, n)
		}
	}
	if len(dead) > 0 {
		// A fresh set, held by nothing yet: its chunks are written in place.
		fresh.dead = make(idSet, dead[len(dead)-1]/chunkIDs+1)
		for c := range fresh.dead {
			fresh.dead[c] = &noChunk
		}
		for _, id := range dead {
			c := id / chunkIDs
			if fresh.dead[c] == &noChunk {
				fresh.dead[c] = new(idChunk)
			}
			fresh.dead[c][id>>6%(chunkIDs/64)] |= 1 << (id & 63)
		}
	}
	fresh.deleted, fresh.dirty = len(dead), dirty
	*o = fresh
	return nil
}

func (o *Overlay) readRecords(r io.Reader, domainSize, merged int) error {
	n, err := snapio.ReadU64(r)
	if err != nil {
		return err
	}
	if n > snapio.MaxSliceLen {
		return fmt.Errorf("overlay: %d pending records exceeds bound", n)
	}
	// The count is untrusted until the stream's CRC is verified: reserve
	// a bounded amount and let real records grow the slice.
	o.pending = make([]dataset.Record, 0, min(n, 1<<16))
	for i := uint64(0); i < n; i++ {
		id, err := snapio.ReadU32(r)
		if err != nil {
			return err
		}
		set, err := snapio.ReadU32Slice(r)
		if err != nil {
			return err
		}
		if want := uint64(merged) + i + 1; uint64(id) != want {
			return fmt.Errorf("overlay: pending record %d has id %d, want %d", i, id, want)
		}
		for j, it := range set {
			if int(it) >= domainSize || j > 0 && it <= set[j-1] {
				return fmt.Errorf("overlay: pending record %d is not a canonical set over %d items", id, domainSize)
			}
		}
		o.add(dataset.Record{ID: id, Set: set}, domainSize)
	}
	return nil
}
