package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/btree"
	"repro/internal/fanout"
	"repro/internal/sequence"
	"repro/internal/storage"
	"repro/internal/vbyte"
)

// The index keeps one copy of the collection. A record's smallest rank
// is its metadata region (Theorem 1), and each of its other ranks is a
// posting in that rank's list, which carries the record's length. So
// once build has written the tree, the sequence forms it sorted are
// dropped, and the index keeps only the reassignment map; a snapshot
// holds no more (persist.go). scanLists reads the lists back: for
// MergeDelta, which lays the records out again from the ids it keeps
// (update.go), and for Load, which proves by the same pass that the
// lists and the metadata table describe one collection, so that a merge
// cannot fail on an index Load accepted.

// postings is what scanLists reads of an index's lists: the length they
// give each record, each rank's count of postings, and either the hot
// lists or every list's ids.
type postings struct {
	meta *Metadata
	// lens[id] is record id's length: 0 for an empty set, 1 for a
	// singleton, else the length its postings give. lens[0] is 0.
	lens   []uint32
	counts []int64      // per rank, the postings of its list
	lists  []postedList // in rank order, when asked for
	hot    []*hotList
}

// postedList is one list's ids, ascending.
type postedList struct {
	rank sequence.Rank
	ids  []uint32
}

// scanLists decodes every list block of tree, on up to workers
// goroutines. The ranks are cut into runs holding about an equal share
// of listPostings (a hint: nothing is trusted to it), eight per worker,
// which the workers take as they come free — a run of sparse lists costs
// more per posting than one of dense lists — each through a scratch pool
// of its own, so the index's pool, its pages and its CacheStats never
// move. It checks what the query path and MergeDelta trust:
//
//   - each block as listScan.add does: decoded with the kernels' error
//     classes, not empty, its ids within the records and ascending
//     across the list, its last id its key's;
//   - each block against meta, a table check accepted: its ids past the
//     empty sets, and below the region of the list's rank, so each
//     posted record's smallest rank lies below the list's;
//   - each record against its postings: every posting of a record gives
//     it one length, 2 or more, its number of postings plus one, and a
//     record past the empty sets and the singletons has some.
//
// With keep set it keeps every list's ids, which MergeDelta lays out;
// otherwise it builds the hot lists' bitmaps, which Load keeps.
func scanLists(tree *btree.BTree, meta *Metadata, numRecords int, listPostings []int64, workers int, keep bool) (*postings, error) {
	domainSize := len(meta.Regions)
	p := &postings{
		meta:   meta,
		lens:   make([]uint32, numRecords+1),
		counts: make([]int64, domainSize),
	}
	if !keep {
		p.hot = make([]*hotList, domainSize)
	}
	// below[r] is the first id whose smallest rank is r or more.
	below := make([]uint32, domainSize+1)
	below[domainSize] = uint32(numRecords) + 1
	for r := domainSize - 1; r >= 0; r-- {
		below[r] = below[r+1]
		if reg := meta.Regions[r]; !reg.Empty() {
			below[r] = reg.L
			for id := reg.L; id <= reg.U1; id++ {
				p.lens[id] = 1
			}
		}
	}
	// Each posting takes two bytes or more of a page.
	pager := tree.Pool().Pager()
	room := pager.NumPages() * int64(pager.PageSize()) / 2
	workers = max(1, min(workers, maxScanWorkers))
	runs := 1
	if workers > 1 {
		runs = 8 * workers
	}
	bounds := rankShares(listPostings, runs)
	parts := make([]scanPart, len(bounds)-1)
	// One tally per worker: a run takes a free one, and at most workers
	// runs are read at once.
	tallies := make([][]recordTally, min(workers, len(parts)))
	free := make(chan []recordTally, len(tallies))
	for i := range tallies {
		tallies[i] = make([]recordTally, numRecords+1)
		free <- tallies[i]
	}
	err := fanout.First(fanout.ForEach(len(parts), workers, func(i int) error {
		part := &parts[i]
		part.p, part.below = p, below
		part.lo, part.hi = sequence.Rank(bounds[i]), sequence.Rank(bounds[i+1])
		if keep {
			var share int64
			for _, n := range listPostings[part.lo:part.hi] {
				share += n
			}
			part.ids = make([]uint32, 0, max(0, min(share, room)))
		}
		view, err := tree.View(storage.NewBufferPool(pager, storage.DefaultPoolPages))
		if err != nil {
			return err
		}
		tally := <-free
		defer func() { free <- tally }()
		return part.read(view, tally, keep)
	}))
	if err != nil {
		return nil, err
	}
	err = fanout.First(fanout.ForEach(workers, workers, func(w int) error {
		lo, hi := idShare(numRecords, w, workers)
		return p.tally(tallies, lo, hi)
	}))
	if err != nil {
		return nil, err
	}
	for _, part := range parts {
		p.lists = append(p.lists, part.lists...)
	}
	return p, nil
}

// maxScanWorkers caps scanLists' workers: each tallies every record, in
// 8 bytes a record, and the tallies are merged record by record, so past
// a few workers the memory and the merge grow while the decoding, split
// among them, no longer dominates.
const maxScanWorkers = 4

// tally sets lens for the records (lo, hi] from what the workers' lists
// say of them, and refuses a record they disagree on: two lengths, a
// singleton given a second, a count of postings other than the length
// less one, and a record past the empty sets and the singletons that no
// list posts.
func (p *postings) tally(tallies [][]recordTally, lo, hi uint32) error {
	for id := lo + 1; id <= hi; id++ {
		var count uint32
		for _, tally := range tallies {
			t := tally[id]
			if t.count == 0 {
				continue
			}
			if n := p.lens[id]; n != 0 && n != t.length {
				return fmt.Errorf("the lists give record %d length %d, and %d", id, t.length, n)
			}
			p.lens[id] = t.length
			count += t.count
		}
		switch n := p.lens[id]; {
		case n == 0 && id > p.meta.EmptyUpper:
			return fmt.Errorf("record %d has ranks past its smallest, and no list posts it", id)
		case n >= 2 && count+1 != n:
			return fmt.Errorf("record %d has length %d, and %d postings", id, n, count)
		}
	}
	return nil
}

// recordTally is what the lists one scanLists worker read say of a
// record: the length they give it, and how many of them post it.
type recordTally struct{ length, count uint32 }

// scanPart is one run of scanLists: the lists of ranks [lo, hi).
type scanPart struct {
	p      *postings
	below  []uint32
	lo, hi sequence.Rank
	ids    []uint32 // the lists' ids, list by list, if kept
	lists  []postedList
}

// read decodes the part's lists from tree, checking each block and
// noting each posting in tally, indexed by record id; it keeps their ids
// if keep is set, and their hot lists if the scan builds them.
func (s *scanPart) read(tree *btree.BTree, tally []recordTally, keep bool) error {
	meta, domainSize, numRecords := s.p.meta, len(s.p.meta.Regions), len(tally)-1
	var scan listScan
	var list []vbyte.Posting // the postings of the list at hand
	rank, open := sequence.Rank(0), false
	closeList := func() {
		if open {
			scan.take(s.p.hot, rank, list)
			s.p.counts[rank] = int64(len(list))
			if keep {
				ids := s.ids[len(s.ids)-len(list):]
				s.lists = append(s.lists, postedList{rank: rank, ids: ids[:len(ids):len(ids)]})
			}
		}
		list, open = list[:0], false
	}
	// The part's first block is the first whose key is past the bare
	// rank prefix of lo. (A bytewise probe, not an id probe: the keys
	// are not checked yet, and idProbeCompare reads their last 4 bytes.)
	var c btree.Cursor
	err := tree.SeekCursor(&c, binary.BigEndian.AppendUint32(nil, s.lo), btree.BytewiseCompare)
	for ; err == nil && c.Valid(); err = c.Next() {
		k := c.Key()
		if len(k) < 9 { // rank + empty tag + id
			return fmt.Errorf("block key of %d bytes", len(k))
		}
		r := keyRank(k)
		if int64(r) >= int64(domainSize) {
			return fmt.Errorf("block of rank %d outside a domain of %d", r, domainSize)
		}
		if r < s.lo {
			continue
		}
		if r >= s.hi {
			break
		}
		if !open || r != rank {
			closeList()
			rank, open = r, true
		}
		start := len(list)
		if list, err = scan.add(list, c.Value(), keyLastID(k), numRecords); err != nil {
			return fmt.Errorf("list of rank %d: %w", r, err)
		}
		blk := list[start:]
		if first := blk[0].ID; first <= meta.EmptyUpper {
			return fmt.Errorf("list of rank %d posts record %d, an empty set", r, first)
		}
		if last := blk[len(blk)-1].ID; last >= s.below[r] {
			return fmt.Errorf("list of rank %d posts record %d, whose smallest rank is not below it", r, last)
		}
		for _, q := range blk {
			t := &tally[q.ID]
			if q.Length < 2 || t.count > 0 && t.length != q.Length {
				return fmt.Errorf("list of rank %d gives record %d length %d", r, q.ID, q.Length)
			}
			t.length = q.Length
			t.count++
			if keep {
				s.ids = append(s.ids, q.ID)
			}
		}
	}
	if err != nil {
		return err
	}
	closeList()
	return nil
}

// sized refuses a snapshot whose counters disagree with the lists, the
// postings listPostings gives each rank, and returns the ranks of the
// collection's sequence forms — one per record past the empty sets, plus
// one per posting — which an OIFSNAP2 arena must hold.
func (p *postings) sized(listPostings []int64) (uint64, error) {
	ranks := uint64(len(p.lens)-1) - uint64(p.meta.EmptyUpper)
	for r, n := range p.counts {
		if n != listPostings[r] {
			return 0, fmt.Errorf("list of rank %d holds %d postings, its counter says %d", r, n, listPostings[r])
		}
		ranks += uint64(n)
	}
	return ranks, nil
}

// rankShares splits the ranks into up to workers runs holding about an
// equal share of the postings (listPostings[r] of rank r's): run w is
// [bounds[w], bounds[w+1]), and starts at the first rank with at least
// w/workers of the postings before it.
func rankShares(listPostings []int64, workers int) []int {
	domainSize := len(listPostings)
	workers = max(1, min(workers, domainSize))
	var total int64
	for _, n := range listPostings {
		total += n
	}
	bounds := make([]int, workers+1)
	for w := 1; w <= workers; w++ {
		bounds[w] = domainSize
	}
	var seen int64
	for r, w := 0, 1; r < domainSize && w < workers; r++ {
		for w < workers && seen >= total*int64(w)/int64(workers) {
			bounds[w] = r
			w++
		}
		seen += listPostings[r]
	}
	return bounds
}

// idShare returns worker w's range of record ids, (lo, hi], of workers
// equal ranges over n records.
func idShare(n, w, workers int) (lo, hi uint32) {
	return uint32(w * n / workers), uint32((w + 1) * n / workers)
}
