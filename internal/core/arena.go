package core

import (
	"repro/internal/dataset"
	"repro/internal/sequence"
	"repro/internal/vbyte"
)

// queryArena holds every scratch buffer a query evaluation needs, so
// steady-state queries allocate nothing: rank scratch for the prepared
// query and RoI bounds, candidate and merge slices, the block candidate
// bitmap, superset's gathered postings, the B-tree probe key, and the list
// cursor itself (which in turn recycles its leaf arena inside
// btree.Cursor). Each Index — and each Reader clone — owns one arena;
// buffers are truncated, never freed, so they settle at the high-water
// mark of the queries seen.
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
	scands   []scand         // superset candidate set
	merged   []scand         // superset merge target (swapped with scands)
	incoming []vbyte.Posting // superset per-item RoI postings
	probe    []byte          // B-tree seek probe
	lc       listCursor      // the one live list cursor

	// bitmapBlocks counts the list blocks filterByList answered from a
	// hot list's bitmap instead of decoding them (tests read it).
	bitmapBlocks int
}

// scand is one superset candidate: how many of its length items have
// been seen among the query's lists so far (Algorithm 2's counters).
type scand struct {
	id     uint32
	length uint32
	found  uint32
}

// ensureRuntime lazily attaches the per-instance scratch arena. Lazy so
// every construction path — Build, Load, MergeDelta's rebuild —
// converges here; NewReader drops the copied pointer instead, since
// clones must not share mutable state with the parent.
func (ix *Index) ensureRuntime() {
	if ix.arena == nil {
		ix.arena = &queryArena{}
	}
}
