package core

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/overlay"
	"repro/internal/sequence"
	"repro/internal/vbyte"
)

// Query evaluation (§4). All three predicates share the same skeleton:
// determine the Range of Interest from the query's sequence form, use the
// B-tree to fetch only the blocks covering it, and merge-join against the
// shrinking candidate set, finishing with the metadata table for the
// query's smallest item. Results are returned as sorted original record
// ids.
//
// Each predicate has an Append form that appends the answer to a
// caller-provided slice — the zero-allocation entry point: with a warm
// page cache, an Append query reuses the arena's scratch buffers
// throughout and allocates nothing. The plain forms
// allocate only the result slice they return.

// Subset returns the ids of records t with qs ⊆ t.s (Algorithm 1).
func (ix *Index) Subset(qs []dataset.Item) ([]uint32, error) {
	return ix.AppendSubset(nil, qs)
}

// AppendSubset appends Subset's answer to dst and returns the extended
// slice. Existing dst contents are preserved; only the appended region
// is sorted.
func (ix *Index) AppendSubset(dst []uint32, qs []dataset.Item) ([]uint32, error) {
	ix.ensureRuntime()
	q, err := ix.prepRanks(qs)
	if err != nil {
		return nil, err
	}
	ar := ix.arena
	n := len(q)
	if n == 0 {
		// Every record contains the empty set.
		all := ar.aux[:0]
		for id := uint32(1); id <= uint32(ix.numRecords); id++ {
			all = append(all, id)
		}
		ar.aux = all
		return ix.mapToOriginal(dst, all, nil, overlay.ContainsAll), nil
	}
	if n == 1 {
		lc, err := ix.seekTag(q[0], nil)
		if err != nil {
			return nil, err
		}
		ids, err := lc.appendIDs(ar.aux[:0], nil, 0, math.MaxUint32)
		if err != nil {
			return nil, err
		}
		// The metadata region holds the list's suffix: records whose
		// smallest item is q[0]. Region ids all exceed list ids.
		reg := ix.meta.Regions[q[0]]
		for id := reg.L; !reg.Empty() && id <= reg.U; id++ {
			ids = append(ids, id)
		}
		ar.aux = ids
		return ix.mapToOriginal(dst, ids, q, overlay.ContainsAll), nil
	}

	// RoI_sub (Def. 2): lower bound is the full run of ranks up to the
	// query's largest; upper is the query followed by the largest rank.
	// Both live in the arena's bound buffer: the lower bound is dead
	// once the seek probe is built, so the buffer is reused for the
	// upper bound that the scan loop consults.
	bound := appendConsecutiveRanks(ar.bound[:0], 0, q[n-1])
	ar.bound = bound
	lc, err := ix.seekTag(q[n-1], bound)
	if err != nil {
		return nil, err
	}
	upper := q
	if maxR := ix.ord.MaxRank(); q[n-1] != maxR {
		bound = append(ar.bound[:0], q...)
		bound = append(bound, maxR)
		ar.bound = bound
		upper = bound
	}

	// Candidates from the least frequent item's list, RoI-bounded. Records
	// shorter than the query can never qualify.
	cands, err := lc.appendIDs(ar.cands[:0], upper, uint32(n), math.MaxUint32)
	if err != nil {
		return nil, err
	}
	ar.cands = cands

	// Join against the remaining lists, least frequent first, probing by
	// candidate id so only blocks inside [min-candidate, max-candidate]
	// are touched.
	for i := n - 2; i >= 1 && len(cands) > 0; i-- {
		cands, err = ix.filterByList(q[i], cands)
		if err != nil {
			return nil, err
		}
	}
	if len(cands) == 0 {
		return ix.mapToOriginal(dst, nil, q, overlay.ContainsAll), nil
	}

	result, err := ix.filterBySmallest(q[0], cands)
	if err != nil {
		return nil, err
	}
	return ix.mapToOriginal(dst, result, q, overlay.ContainsAll), nil
}

// filterBySmallest keeps the candidates (sorted new ids) whose records
// contain rank r, for r the query's smallest rank, by Theorem 1 — valid
// for arbitrary candidate ids, not just list-derived ones: ids inside
// r's metadata region have smallest rank r (contain it by construction),
// ids beyond the region have smallest rank > r (cannot contain it), and
// ids before it must carry a posting in r's (shortened) list. Like
// filterByList it filters in place: the result reuses cands' storage.
func (ix *Index) filterBySmallest(r sequence.Rank, cands []uint32) ([]uint32, error) {
	reg := ix.meta.Regions[r]
	if reg.Empty() {
		return ix.filterByList(r, cands)
	}
	// cands[:a] precede the region, cands[a:b] lie in it.
	a, b := countAtMost(cands, reg.L-1), countAtMost(cands, reg.U)
	checked, err := ix.filterByList(r, cands[:a])
	if err != nil {
		return nil, err
	}
	// checked ends at or before cands[a] and its ids all precede the
	// region's, so appending the region run keeps the result sorted.
	return append(checked, cands[a:b]...), nil
}

// countAtMost returns how many of ids (sorted ascending) are <= x.
func countAtMost(ids []uint32, x uint32) int {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// AppendSubsetWithin appends Subset(qs) ∩ cands to dst: the members of
// cands whose records contain every item of qs. cands must be sorted
// ascending original-space ids; it is never mutated, so callers may pass
// shared slices. This is the streaming-AND entry point: when an
// intersection already holds a small candidate set, probing qs's lists
// by candidate id (filterByList's block seeks) touches only the blocks
// those candidates fall in, instead of materializing qs's full answer
// and intersecting afterwards. The append contract matches AppendSubset:
// existing dst contents are preserved, the appended region is sorted.
func (ix *Index) AppendSubsetWithin(dst []uint32, qs []dataset.Item, cands []uint32) ([]uint32, error) {
	ix.ensureRuntime()
	q, err := ix.prepRanks(qs)
	if err != nil {
		return nil, err
	}
	ar := ix.arena
	n := len(q)

	// Map merged-range candidates into new-id space (delta-range ids are
	// handled by the delta sweep below). The map permutes ids, so the
	// mapped set must be re-sorted for the list probes.
	w := ar.within[:0]
	for _, c := range cands {
		if c >= 1 && int(c) <= ix.numRecords {
			w = append(w, ix.ids.NewID(int(c)-1))
		}
	}
	sortIDs(w, &ar.sorted)
	ar.within = w

	// Join against the query's lists, least frequent first — identical to
	// AppendSubset's filtering phase, minus the RoI candidate scan the
	// given candidates replace.
	for i := n - 1; i >= 1 && len(w) > 0; i-- {
		w, err = ix.filterByList(q[i], w)
		if err != nil {
			return nil, err
		}
		ar.within = w
	}

	if n > 0 && len(w) > 0 {
		if w, err = ix.filterBySmallest(q[0], w); err != nil {
			return nil, err
		}
	}

	// Back to original ids, then the delta — restricted to records
	// present in cands, unlike mapToOriginal's unconditional delta sweep
	// — and the tombstone mask.
	start := len(dst)
	dst = ix.appendOriginal(dst, w)
	if ix.ov.Len() > 0 {
		dst = ix.ov.AppendMatchesWithin(dst, ix.querySet(q), cands)
	}
	return ix.sortAndMask(dst, start), nil
}

// Equality returns the ids of records t with t.s = qs (§4.2).
func (ix *Index) Equality(qs []dataset.Item) ([]uint32, error) {
	return ix.AppendEquality(nil, qs)
}

// AppendEquality appends Equality's answer to dst; see AppendSubset for
// the append contract.
func (ix *Index) AppendEquality(dst []uint32, qs []dataset.Item) ([]uint32, error) {
	ix.ensureRuntime()
	q, err := ix.prepRanks(qs)
	if err != nil {
		return nil, err
	}
	ar := ix.arena
	n := len(q)
	if n == 0 {
		ids := ar.aux[:0]
		for id := uint32(1); id <= ix.meta.EmptyUpper; id++ {
			ids = append(ids, id)
		}
		ar.aux = ids
		return ix.mapToOriginal(dst, ids, q, overlay.Equal), nil
	}
	reg := ix.meta.Regions[q[0]]
	if reg.Empty() {
		return ix.mapToOriginal(dst, nil, q, overlay.Equal), nil
	}
	if n == 1 {
		// All answers are the cardinality-1 prefix of the region; the
		// inverted list is never touched.
		ids := ar.aux[:0]
		for id := reg.L; id <= reg.U1; id++ {
			ids = append(ids, id)
		}
		ar.aux = ids
		return ix.mapToOriginal(dst, ids, q, overlay.Equal), nil
	}

	// RoI_eq is the single point qs (Def. 3). Scan the least frequent
	// item's list from the first block with tag >= qs until the first
	// block with tag > qs; duplicates of qs may span several blocks.
	lc, err := ix.seekTag(q[n-1], q)
	if err != nil {
		return nil, err
	}
	// Length filter (§2 extension).
	cands, err := lc.appendIDs(ar.cands[:0], q, uint32(n), uint32(n))
	if err != nil {
		return nil, err
	}
	ar.cands = cands
	// Answers have smallest rank q[0] by definition: keep the ids in its
	// region. The list is in id order, so they are one run.
	a, b := countAtMost(cands, reg.L-1), countAtMost(cands, reg.U)
	cands = cands[:copy(cands, cands[a:b])]
	for i := n - 2; i >= 1 && len(cands) > 0; i-- {
		cands, err = ix.filterByList(q[i], cands)
		if err != nil {
			return nil, err
		}
	}
	// No access to q[0]'s list: membership in its metadata region plus
	// length n plus containment of q[1..n-1] pins the set to exactly qs.
	return ix.mapToOriginal(dst, cands, q, overlay.Equal), nil
}

// Superset returns the ids of records t with t.s ⊆ qs (Algorithm 2).
func (ix *Index) Superset(qs []dataset.Item) ([]uint32, error) {
	return ix.AppendSuperset(nil, qs)
}

// AppendSuperset appends Superset's answer to dst; see AppendSubset for
// the append contract.
func (ix *Index) AppendSuperset(dst []uint32, qs []dataset.Item) ([]uint32, error) {
	ix.ensureRuntime()
	q, err := ix.prepRanks(qs)
	if err != nil {
		return nil, err
	}
	ar := ix.arena
	n := len(q)

	// Empty-set records satisfy every superset query.
	results := ar.aux[:0]
	for id := uint32(1); id <= ix.meta.EmptyUpper; id++ {
		results = append(results, id)
	}

	tab := &ar.table
	tab.reset(ix.numRecords)
	for i := n - 1; i >= 0; i-- {
		// Gather this item's RoI postings across its per-j regions
		// (Def. 4), deduplicated by a monotonic id filter — regions
		// ascend in id space and boundary blocks may straddle them. The
		// cursor carries over between regions when the current block
		// already covers the next region's start (Algorithm 2, lines
		// 21-22: "checks if this RoI is not already included in the
		// previously retrieved block").
		incoming := ar.incoming[:0]
		lastSeen := uint32(0)
		var lc *listCursor
		for j := 0; j < i; j++ {
			lower := q[j : i+1]
			upper := appendBoundSet(ar.bound[:0], q[j], q[i], q[n-1])
			ar.bound = upper
			reseek := lc == nil
			if lc != nil {
				if !lc.valid {
					break // the list is exhausted; no later region can match
				}
				tag, err := lc.blockTag()
				if err != nil {
					return nil, err
				}
				reseek = sequence.Compare(tag, lower) < 0
			}
			if reseek {
				if lc, err = ix.seekTag(q[i], lower); err != nil {
					return nil, err
				}
			}
			for lc.valid {
				// Records longer than the query can never qualify.
				if incoming, lastSeen, err = vbyte.AppendPostingsAfter(incoming, lc.cur.Value(), 0, lastSeen, uint32(n)); err != nil {
					return nil, err
				}
				if past, err := lc.pastUpper(upper); err != nil {
					return nil, err
				} else if past {
					break
				}
				if err := lc.next(); err != nil {
					return nil, err
				}
			}
		}
		ar.incoming = incoming
		// The postings ascend, so the last is the largest.
		if k := len(incoming); k > 0 && incoming[k-1].ID > uint32(ix.numRecords) {
			return nil, fmt.Errorf("core: list of rank %d posts id %d past %d records", q[i], incoming[k-1].ID, ix.numRecords)
		}

		// The item's final region lives in the metadata table, not the
		// list (Def. 4's last range; Algorithm 2 lines 22-24).
		// Cardinality-1 records {q[i]} are answers outright; the other
		// residents, (U1, U], were credited with q[i] when admitted.
		if reg := ix.meta.Regions[q[i]]; !reg.Empty() {
			for id := reg.L; id <= reg.U1; id++ {
				results = append(results, id)
			}
		}

		// Count the postings against the candidates. A candidate's posting
		// is one more of its items in the query; a record is an answer
		// the moment none is left unseen (lines 10-11), which happens
		// exactly when it is a subset of the query, since each of its
		// items is seen once. A new record is admitted only if the items
		// not yet examined (q[0..i-1] plus this one) can still cover its
		// whole set: length <= i+1 (line 14); one too long now is too long
		// at every later item. Its smallest item has no posting: if the
		// record's id lies in the region of some q[j], j < i, that item is
		// in the query and is counted at admission rather than at round j
		// (lines 22-24). Candidates that can no longer complete are not
		// swept (lines 18-20): they stay in the table and never complete.
		// The query's regions ascend in id space with j, and an empty one
		// (all zero) lies before every id.
		regs, s := ix.meta.Regions, 0 // q[s]: the first region not wholly before the posting
		for _, p := range incoming {
			if tab.has(p.ID) {
				if tab.seen(p.ID) {
					results = append(results, p.ID)
				}
				continue
			}
			if p.Length > uint32(i+1) {
				continue
			}
			for s < i && regs[q[s]].U < p.ID {
				s++
			}
			left := p.Length - 1
			if s < i && p.ID > regs[q[s]].U1 {
				left--
			}
			if left == 0 {
				results = append(results, p.ID)
			}
			tab.add(p.ID, left)
		}
	}
	ar.aux = results
	return ix.mapToOriginal(dst, results, q, overlay.SubsetOf), nil
}

// filterByList keeps the candidates (sorted new ids) that appear in
// rank's inverted list, probing the B-tree by candidate id so only blocks
// between the smallest and largest candidate are read — the progressive
// range restriction of Algorithm 1, line 15. The filter is in place:
// the returned slice reuses cands' storage. A hot list's visited block
// is answered from its bitmap (hot.go) while it matches its fingerprint,
// checked once per page read; the walk, and so every page request, is
// the same either way.
func (ix *Index) filterByList(rank sequence.Rank, cands []uint32) ([]uint32, error) {
	if len(cands) == 0 {
		// Keep cands' backing storage (it is arena scratch the caller
		// appends to next).
		return cands, nil
	}
	out := cands[:0]
	lc, err := ix.seekID(rank, cands[0])
	if err != nil {
		return nil, err
	}
	// blk tracks the visited block's index in the hot list: forward on
	// next, by a forward search on a reseek.
	ar := ix.arena
	h := ix.hotList(rank)
	blk := h.find(0, lc.lastID)
	i := 0
	for i < len(cands) && lc.valid {
		// The block covers the candidates up to its last id. In place: out
		// ends at or before cands[i] and gains at most one id per
		// candidate the block covers, so no write passes the last of them,
		// and the slots it overwrites hold candidates already read (or
		// marked), which are never read again.
		if h.holds(blk, cands[i], lc, ar) {
			out, i = h.appendMembers(out, cands, i, lc.lastID)
			ar.bitmapBlocks++
		} else {
			hi := i
			for hi < len(cands) && cands[hi] <= lc.lastID {
				hi++
			}
			if out, err = vbyte.AppendMatches(out, lc.cur.Value(), 0, cands[i:hi], &ar.marks); err != nil {
				return nil, err
			}
			i = hi
		}
		if i >= len(cands) {
			break
		}
		// Advance: the adjacent block is one (usually sequential) page
		// away, so try it first; if the next candidate lies beyond it,
		// jump with an id-directed seek instead.
		if err := lc.next(); err != nil {
			return nil, err
		}
		blk++
		if lc.valid && lc.lastID < cands[i] {
			lc, err = ix.seekID(rank, cands[i])
			if err != nil {
				return nil, err
			}
			blk = h.find(blk, lc.lastID)
		}
	}
	return out, nil
}
