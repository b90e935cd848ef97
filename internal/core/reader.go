package core

import (
	"repro/internal/storage"
)

// NewReader returns an independent query handle over the same index
// pages. An Index is not safe for concurrent use because queries mutate
// the buffer pool (frames, LRU order, statistics) and the query arena;
// the pages themselves are immutable once built, so a reader with its
// own pool of the given capacity can run queries in parallel with the
// parent and with other readers.
//
// The reader shares the parent's pending records, their posting lists
// and the tombstones as they stand now (overlay.Overlay.View: the
// storage is shared, the lengths are the reader's own): inserts and
// deletes made on the parent after NewReader are invisible to the
// reader (create a fresh reader after MergeDelta). Readers must not
// Insert, Delete, MergeDelta, Save, or SetPool.
func (ix *Index) NewReader(poolPages int) (*Reader, error) {
	pool := storage.NewBufferPool(ix.tree.Pool().Pager(), poolPages)
	view, err := ix.tree.View(pool)
	if err != nil {
		return nil, err
	}
	clone := *ix
	clone.tree = view
	clone.ov = ix.ov.View()
	// The clone must not share mutable query state with the parent:
	// drop the copied arena pointer so ensureRuntime attaches a fresh,
	// reader-private one.
	clone.arena = nil
	return &Reader{ix: &clone, pool: pool}, nil
}

// Reader is a concurrency-safe-by-isolation query handle produced by
// NewReader. Each reader owns its cache; use one per goroutine.
type Reader struct {
	ix   *Index
	pool *storage.BufferPool
}

// Subset answers like Index.Subset.
func (r *Reader) Subset(qs []uint32) ([]uint32, error) { return r.ix.Subset(qs) }

// Equality answers like Index.Equality.
func (r *Reader) Equality(qs []uint32) ([]uint32, error) { return r.ix.Equality(qs) }

// Superset answers like Index.Superset.
func (r *Reader) Superset(qs []uint32) ([]uint32, error) { return r.ix.Superset(qs) }

// AppendSubset answers like Index.AppendSubset — the reader's
// zero-allocation entry point.
func (r *Reader) AppendSubset(dst []uint32, qs []uint32) ([]uint32, error) {
	return r.ix.AppendSubset(dst, qs)
}

// AppendSubsetWithin answers like Index.AppendSubsetWithin: the subset
// answer restricted to a caller-provided sorted candidate set.
func (r *Reader) AppendSubsetWithin(dst []uint32, qs []uint32, cands []uint32) ([]uint32, error) {
	return r.ix.AppendSubsetWithin(dst, qs, cands)
}

// AppendEquality answers like Index.AppendEquality.
func (r *Reader) AppendEquality(dst []uint32, qs []uint32) ([]uint32, error) {
	return r.ix.AppendEquality(dst, qs)
}

// AppendSuperset answers like Index.AppendSuperset.
func (r *Reader) AppendSuperset(dst []uint32, qs []uint32) ([]uint32, error) {
	return r.ix.AppendSuperset(dst, qs)
}

// Stats returns this reader's private access statistics.
func (r *Reader) Stats() storage.AccessStats { return r.pool.Stats() }

// ResetStats zeroes this reader's statistics.
func (r *Reader) ResetStats() { r.pool.ResetStats() }

// Pool returns the reader's private buffer pool.
func (r *Reader) Pool() *storage.BufferPool { return r.pool }
