package core

import (
	"math/bits"

	"repro/internal/dataset"
	"repro/internal/sequence"
	"repro/internal/vbyte"
)

// queryArena holds every scratch buffer a query evaluation needs, so
// steady-state queries allocate nothing: rank scratch for the prepared
// query and RoI bounds, candidate slices, the block candidate bitmap,
// superset's gathered postings and its candidate table, the B-tree probe
// key, and the list cursor itself (which in turn recycles its leaf arena
// inside btree.Cursor). Each Index — and each Reader clone — owns one
// arena; buffers are truncated, never freed, so they settle at the
// high-water mark of the queries seen.
//
// The arena makes explicit what was previously implicit: only one list
// cursor is live at a time on a query path (candidate gathering finishes
// before filtering starts, and filters run one list at a time), so a
// single recycled cursor and bitmap serve the whole evaluation.
type queryArena struct {
	ranks    []sequence.Rank // prepared query (prepRanks result)
	bound    []sequence.Rank // RoI bound scratch (lower, then upper)
	cands    []uint32        // shrinking candidate set
	aux      []uint32        // secondary id scratch (whole lists, results)
	within   []uint32        // AppendSubsetWithin's new-id candidate scratch
	marks    []uint64        // one block's candidate bitmap, all zero between uses
	sorted   []uint32        // sortIDs' second buffer
	qset     []dataset.Item  // the query as items, for the delta's matcher
	incoming []vbyte.Posting // superset per-item RoI postings
	table    candTable       // superset's candidates and their counters
	probe    []byte          // B-tree seek probe
	lc       listCursor      // the one live list cursor

	// checked holds, per hot block (numberHot), the page read under
	// which the block last matched its fingerprint (hotList.holds).
	checked []hotCheck

	// bitmapBlocks counts the list blocks filterByList answered from a
	// hot list's bitmap instead of decoding them, and fingerprints the
	// block fingerprints it computed (tests read both).
	bitmapBlocks int
	fingerprints int
}

// candTable is superset's candidate set (Algorithm 2's counters): an
// open-addressed table from new id to how many of the record's items are
// still unseen among the query's, and a bitmap of the ids it holds, so
// that a posting of no candidate costs one bit test. The query that uses
// it resets it first, so a query that failed midway leaves nothing
// behind for the next.
type candTable struct {
	slots  []candSlot // power-of-two length; id 0 marks a free slot
	shift  uint32     // 32 - log2(len(slots)), for home
	used   []uint32   // indexes of the occupied slots
	member []uint64   // bit id is set iff id is in slots
}

// candSlot is one candidate: its new id and how many of its items are
// yet to be seen among the query's.
type candSlot struct {
	id   uint32
	left uint32
}

// candTableSlots is the table's first capacity; it doubles whenever it
// would pass half full.
const candTableSlots = 256

// reset empties the table and sizes its bitmap for ids up to numRecords.
// It clears only what the last query set.
func (t *candTable) reset(numRecords int) {
	for _, k := range t.used {
		id := t.slots[k].id
		t.member[id>>6] &^= 1 << (id & 63)
		t.slots[k] = candSlot{}
	}
	t.used = t.used[:0]
	if words := numRecords>>6 + 1; len(t.member) < words {
		t.member = make([]uint64, words)
	}
	if t.slots == nil {
		t.alloc(candTableSlots)
	}
}

// has reports whether id is a candidate; id must be at most the
// numRecords the table was reset for.
func (t *candTable) has(id uint32) bool { return t.member[id>>6]&(1<<(id&63)) != 0 }

// home returns id's first probe slot: a Fibonacci hash, so that the
// runs of close ids a gather produces spread over the table.
func (t *candTable) home(id uint32) uint32 {
	return (id * 0x9E3779B1) >> t.shift
}

// seen counts one more of candidate id's items and reports whether that
// was its last unseen one; id must be a candidate.
func (t *candTable) seen(id uint32) bool {
	mask := uint32(len(t.slots) - 1)
	for k := t.home(id); ; k = (k + 1) & mask {
		if s := &t.slots[k]; s.id == id {
			s.left--
			return s.left == 0
		}
	}
}

// add makes id, which must not be a candidate, one with left items unseen.
func (t *candTable) add(id, left uint32) {
	if 2*(len(t.used)+1) > len(t.slots) {
		t.grow()
	}
	t.insert(candSlot{id: id, left: left})
	t.member[id>>6] |= 1 << (id & 63)
}

// insert places s at the first free slot from its home.
func (t *candTable) insert(s candSlot) {
	mask := uint32(len(t.slots) - 1)
	k := t.home(s.id)
	for t.slots[k].id != 0 {
		k = (k + 1) & mask
	}
	t.slots[k] = s
	t.used = append(t.used, k)
}

// grow doubles the table and re-places its candidates.
func (t *candTable) grow() {
	old, used := t.slots, t.used
	t.alloc(2 * len(old))
	t.used = make([]uint32, 0, len(t.slots)/2)
	for _, k := range used {
		t.insert(old[k])
	}
}

// alloc gives the table n empty slots, n a power of two.
func (t *candTable) alloc(n int) {
	t.slots = make([]candSlot, n)
	t.shift = uint32(33 - bits.Len(uint(n)))
}

// ensureRuntime lazily attaches the per-instance scratch arena. Lazy so
// every construction path — Build, Load, MergeDelta's rebuild —
// converges here; NewReader drops the copied pointer instead, since
// clones must not share mutable state with the parent.
func (ix *Index) ensureRuntime() {
	if ix.arena == nil {
		ix.arena = &queryArena{checked: make([]hotCheck, ix.hotBlocks)}
	}
}
