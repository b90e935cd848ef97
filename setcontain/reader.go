package setcontain

import "repro/internal/storage"

// engineReader is the uniform surface of the backends' isolated query
// handles (core.Reader, invfile.Reader, ubtree.Reader).
type engineReader interface {
	Queryable
	Stats() storage.AccessStats
	ResetStats()
	Pool() *storage.BufferPool
}

// Reader is an isolated, concurrency-safe-by-design query handle created
// by Index.NewReader (or Engine.NewReader): it shares the parent's
// immutable pages but owns its cache, so one reader per goroutine
// queries in parallel. Readers see the inserts that existed when they
// were created and never the later ones. Store manages a pool of
// readers automatically.
type Reader struct {
	r engineReader
}

// Subset answers like Index.Subset.
func (r *Reader) Subset(qs []Item) ([]uint32, error) { return r.r.Subset(qs) }

// Equality answers like Index.Equality.
func (r *Reader) Equality(qs []Item) ([]uint32, error) { return r.r.Equality(qs) }

// Superset answers like Index.Superset.
func (r *Reader) Superset(qs []Item) ([]uint32, error) { return r.r.Superset(qs) }

// CacheStats returns this reader's private access statistics.
func (r *Reader) CacheStats() CacheStats { return cacheStatsOf(r.r.Stats()) }

// ResetCacheStats zeroes this reader's statistics.
func (r *Reader) ResetCacheStats() { r.r.ResetStats() }

// setInterrupt installs fn as the reader's cancellation check, consulted
// by its buffer pool between list-block reads. Store.run and the
// in-process shard session wire a context's Err here for the duration
// of a query. A sharded reader has no pool of its own to arm — its
// sessions stop on the ctx each call carries.
func (r *Reader) setInterrupt(fn func() error) {
	if p := r.r.Pool(); p != nil {
		p.SetInterrupt(fn)
	}
}
