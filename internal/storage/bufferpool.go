package storage

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// AccessStats records how a BufferPool has touched its backing pager.
// Misses model disk page accesses; the paper distinguishes sequential
// accesses from random ones (a seek), which is the basis of the disk
// model. Misses are classified by jump distance from the previous miss:
// sequential (+1 page), near (within NearWindow pages — a short-stroke
// seek that the era's disks served from track cache at ~1 ms) or random
// (a full seek).
type AccessStats struct {
	Hits       int64 // page found in the pool
	Misses     int64 // page fetched from the pager (a "disk page access")
	SeqMisses  int64 // misses whose page id is exactly lastMiss+1
	NearMisses int64 // misses within NearWindow pages of the last miss
	RandMisses int64 // all other misses
}

// NearWindow is the jump distance (in pages) under which a miss counts as
// near rather than random: 256 x 4 KB = 1 MB, about one disk track.
const NearWindow = 256

// Accesses returns total page requests served (hits + misses).
func (s AccessStats) Accesses() int64 { return s.Hits + s.Misses }

// Sub returns s - t, useful for per-query deltas around a snapshot.
func (s AccessStats) Sub(t AccessStats) AccessStats {
	return AccessStats{
		Hits:       s.Hits - t.Hits,
		Misses:     s.Misses - t.Misses,
		SeqMisses:  s.SeqMisses - t.SeqMisses,
		NearMisses: s.NearMisses - t.NearMisses,
		RandMisses: s.RandMisses - t.RandMisses,
	}
}

// Add returns s + t.
func (s AccessStats) Add(t AccessStats) AccessStats {
	return AccessStats{
		Hits:       s.Hits + t.Hits,
		Misses:     s.Misses + t.Misses,
		SeqMisses:  s.SeqMisses + t.SeqMisses,
		NearMisses: s.NearMisses + t.NearMisses,
		RandMisses: s.RandMisses + t.RandMisses,
	}
}

func (s AccessStats) String() string {
	return fmt.Sprintf("hits=%d misses=%d (seq=%d near=%d rand=%d)",
		s.Hits, s.Misses, s.SeqMisses, s.NearMisses, s.RandMisses)
}

// frame is one cached page plus its LRU bookkeeping.
type frame struct {
	id    PageID
	data  []byte
	pins  int
	stamp uint64 // the read that filled data (see BufferPool.Stamp)
	// intrusive doubly-linked LRU list (head = most recent)
	prev, next *frame
}

// BufferPool is a read cache of a fixed number of pages over a Pager, with
// LRU replacement. It is the measurement point of the whole repository:
// every index reads pages exclusively through a pool, and
// AccessStats.Misses is the paper's "disk page accesses".
//
// A pool never writes. Every page is written once, by a builder, straight
// to the pager before any pool reads it, so a cached frame always equals
// its page and eviction simply drops it.
//
// Pinned pages are exempt from eviction; callers pin at most a handful of
// pages at a time (a B-tree root-to-leaf path), which must be smaller than
// the pool. The zero value is not usable; use NewBufferPool.
//
// Each frame carries the stamp of the read that filled it. Because a
// pool never writes a frame, two equal stamps name the same bytes, so a
// caller that has copied or checked a page's bytes may skip redoing it
// while the page's stamp is unchanged.
type BufferPool struct {
	pager    Pager
	capacity int
	// num and reads make the next stamp: num in the high 32 bits, the
	// count of pager reads under num in the low 32.
	num, reads uint32
	// frames is indexed by page id: ids are dense and a page is never
	// freed, so the table needs no hashing. A nil entry is a page not
	// resident; resident counts the others. The table grows only after a
	// successful ReadPage, to the largest id read so far.
	frames    []*frame
	resident  int
	lruHead   *frame
	lruTail   *frame
	stats     AccessStats
	lastMiss  PageID
	interrupt func() error

	// free recycles evicted frames (and their page buffers) so a steady
	// stream of misses re-reads into existing memory instead of calling
	// make([]byte, pageSize) per miss — the frame free-list of the
	// zero-allocation query path. Bounded by capacity.
	free []*frame
}

// DefaultPoolPages mirrors the paper's minimum Berkeley DB cache: 32 KB,
// i.e. 8 pages of 4 KB.
const DefaultPoolPages = 8

// NewBufferPool wraps pager with an LRU cache of capacity pages.
// A non-positive capacity selects DefaultPoolPages.
func NewBufferPool(pager Pager, capacity int) *BufferPool {
	if capacity <= 0 {
		capacity = DefaultPoolPages
	}
	return &BufferPool{
		pager:    pager,
		capacity: capacity,
		num:      poolNumbers.Add(1),
		lastMiss: InvalidPageID,
	}
}

// poolNumbers hands out pool numbers, from 1, so no stamp is 0 and no
// two pools share one (short of 2^32 numbers drawn in one process). A
// pool takes a further number each time its read count would wrap, after
// 2^32 reads, so its own stamps never repeat either.
var poolNumbers atomic.Uint32

// Stamp returns the stamp of page id's resident frame, or 0 if the page
// is not resident. A stamp names one pager read, the one that filled the
// frame: it is never 0, a hit leaves it as it is, and a re-read after
// eviction or DropAll gets a new one, unique across every pool of the
// process. Equal stamps therefore mean equal bytes.
func (bp *BufferPool) Stamp(id PageID) uint64 {
	if f := bp.lookup(id); f != nil {
		return f.stamp
	}
	return 0
}

// stamp numbers one more pager read.
func (bp *BufferPool) stamp() uint64 {
	if bp.reads == math.MaxUint32 {
		bp.num, bp.reads = poolNumbers.Add(1), 0
	}
	bp.reads++
	return uint64(bp.num)<<32 | uint64(bp.reads)
}

// Pager returns the backing pager.
func (bp *BufferPool) Pager() Pager { return bp.pager }

// Capacity returns the pool size in pages.
func (bp *BufferPool) Capacity() int { return bp.capacity }

// PageSize returns the backing pager's page size.
func (bp *BufferPool) PageSize() int { return bp.pager.PageSize() }

// Stats returns the accumulated access statistics.
func (bp *BufferPool) Stats() AccessStats { return bp.stats }

// ResetStats zeroes the statistics and the sequentiality tracker. The page
// cache itself is not touched; use DropAll to also empty the cache (a "cold
// cache" measurement, as between the paper's queries).
func (bp *BufferPool) ResetStats() {
	bp.stats = AccessStats{}
	bp.lastMiss = InvalidPageID
}

// AddStats folds s into the pool's counters. It seeds a replacement pool
// with its predecessor's totals — how MergeDelta keeps an engine's
// cumulative I/O statistics monotone across the page-file swap — without
// touching the sequentiality tracker.
func (bp *BufferPool) AddStats(s AccessStats) { bp.stats = bp.stats.Add(s) }

// DropAll empties the cache so the next accesses start cold. It refuses,
// leaving the cache as it is, while any page is pinned: every Get must
// have been matched by its Put. The dropped frames' buffers are recycled
// for future misses.
func (bp *BufferPool) DropAll() error {
	for f := bp.lruHead; f != nil; f = f.next {
		if f.pins > 0 {
			return fmt.Errorf("storage: DropAll with pinned page %d", f.id)
		}
	}
	for f := bp.lruHead; f != nil; {
		next := f.next
		bp.frames[f.id] = nil
		bp.recycle(f)
		f = next
	}
	bp.resident = 0
	bp.lruHead, bp.lruTail = nil, nil
	return nil
}

// lookup returns the resident frame of page id, or nil.
func (bp *BufferPool) lookup(id PageID) *frame {
	if id < 0 || int64(id) >= int64(len(bp.frames)) {
		return nil
	}
	return bp.frames[id]
}

// recycle returns an unlinked frame to the free-list (bounded by the
// pool capacity; beyond that the frame is left to the garbage collector).
func (bp *BufferPool) recycle(f *frame) {
	if len(bp.free) >= bp.capacity {
		return
	}
	f.id = InvalidPageID
	f.pins = 0
	f.prev, f.next = nil, nil
	bp.free = append(bp.free, f)
}

// newFrame returns a frame for page id, reusing a recycled buffer when
// one is available. The data contents are unspecified; the caller
// overwrites them with ReadPage.
func (bp *BufferPool) newFrame(id PageID) *frame {
	if n := len(bp.free); n > 0 {
		f := bp.free[n-1]
		bp.free[n-1] = nil
		bp.free = bp.free[:n-1]
		f.id = id
		return f
	}
	return &frame{id: id, data: make([]byte, bp.pager.PageSize())}
}

// lruUnlink removes f from the LRU list.
func (bp *BufferPool) lruUnlink(f *frame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else if bp.lruHead == f {
		bp.lruHead = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else if bp.lruTail == f {
		bp.lruTail = f.prev
	}
	f.prev, f.next = nil, nil
}

// lruPushFront makes f the most recently used frame.
func (bp *BufferPool) lruPushFront(f *frame) {
	f.prev = nil
	f.next = bp.lruHead
	if bp.lruHead != nil {
		bp.lruHead.prev = f
	}
	bp.lruHead = f
	if bp.lruTail == nil {
		bp.lruTail = f
	}
}

// touch marks f as most recently used.
func (bp *BufferPool) touch(f *frame) {
	if bp.lruHead == f {
		return
	}
	bp.lruUnlink(f)
	bp.lruPushFront(f)
}

// evictOne drops the least recently used unpinned frame.
func (bp *BufferPool) evictOne() error {
	for f := bp.lruTail; f != nil; f = f.prev {
		if f.pins > 0 {
			continue
		}
		bp.lruUnlink(f)
		bp.frames[f.id] = nil
		bp.resident--
		bp.recycle(f)
		return nil
	}
	return fmt.Errorf("storage: buffer pool of %d pages exhausted by pins", bp.capacity)
}

// SetInterrupt installs fn, consulted before every page request: a
// non-nil return aborts the request with that error, which propagates
// out of whatever query is driving the pool. Queries touch the pool
// between list-block reads, so this is the cancellation point for
// long-running scans (Store.Exec wires a context's Err here). Pass nil
// to clear. The hook is per-pool and therefore per-reader; it must only
// be changed while no request is in flight.
func (bp *BufferPool) SetInterrupt(fn func() error) { bp.interrupt = fn }

// fetch returns the frame for id, loading it on a miss. Statistics are
// classified only after the pager read succeeds: a failed ReadPage is
// not a disk page access, so it must neither count as a miss nor advance
// the sequentiality tracker (a retry after a transient fault would
// otherwise be misclassified against the failed position).
func (bp *BufferPool) fetch(id PageID) (*frame, error) {
	if bp.interrupt != nil {
		if err := bp.interrupt(); err != nil {
			return nil, err
		}
	}
	if f := bp.lookup(id); f != nil {
		bp.stats.Hits++
		bp.touch(f)
		return f, nil
	}
	for bp.resident >= bp.capacity {
		if err := bp.evictOne(); err != nil {
			return nil, err
		}
	}
	f := bp.newFrame(id)
	if err := bp.pager.ReadPage(id, f.data); err != nil {
		bp.recycle(f)
		return nil, err
	}
	f.stamp = bp.stamp()
	bp.stats.Misses++
	switch delta := int64(id) - int64(bp.lastMiss); {
	case bp.lastMiss == InvalidPageID:
		bp.stats.RandMisses++
	case delta == 1:
		bp.stats.SeqMisses++
	case delta >= -NearWindow && delta <= NearWindow:
		bp.stats.NearMisses++
	default:
		bp.stats.RandMisses++
	}
	bp.lastMiss = id
	if n := int(id) + 1; n > len(bp.frames) {
		bp.frames = slices.Grow(bp.frames, n-len(bp.frames))[:n]
	}
	bp.frames[id] = f
	bp.resident++
	bp.lruPushFront(f)
	return f, nil
}

// Get pins page id and returns its bytes. The slice aliases the cached
// frame: the caller must not retain it past the matching Put, and must not
// modify it — the pool never writes a frame back, so a change would be
// seen by later readers of the frame and lost on its eviction.
func (bp *BufferPool) Get(id PageID) ([]byte, error) {
	f, err := bp.fetch(id)
	if err != nil {
		return nil, err
	}
	f.pins++
	return f.data, nil
}

// Put unpins page id. Every Get must be paired with exactly one Put.
// A Put of a page that is not resident, or resident but not pinned,
// reports an accounting error instead of silently doing nothing: both
// indicate a pin-balance bug in the caller (pinned pages are exempt from
// eviction, so a correctly pinned page is always resident).
func (bp *BufferPool) Put(id PageID) error {
	f := bp.lookup(id)
	if f == nil {
		return fmt.Errorf("storage: Put of non-resident page %d", id)
	}
	if f.pins == 0 {
		return fmt.Errorf("storage: Put of unpinned page %d", id)
	}
	f.pins--
	return nil
}
