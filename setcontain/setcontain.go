package setcontain

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/wal"
)

// Item is a vocabulary element: a dense uint32 in [0, DomainSize).
type Item = uint32

// Collection is an in-memory set of records awaiting indexing. Records
// receive 1-based ids in insertion order; queries return these ids. A
// record costs its items (4 bytes each) plus 4 bytes: the sets lie end
// to end in 64 KiB chunks, so a collection holds no slice header or
// pointer per record.
type Collection struct {
	ds *dataset.Dataset
}

// NewCollection returns an empty collection over items [0, domainSize).
func NewCollection(domainSize int) *Collection {
	return &Collection{ds: dataset.New(domainSize)}
}

// WrapDataset adapts a low-level dataset into a Collection. It is the
// bridge used by the in-module measurement layer (internal/experiments);
// external callers build collections with NewCollection or the readers.
func WrapDataset(ds *dataset.Dataset) *Collection { return &Collection{ds: ds} }

// Add appends a record (copied, sorted, deduplicated) and returns its id.
// Empty sets are allowed.
func (c *Collection) Add(set []Item) (uint32, error) { return c.ds.Add(set) }

// Len returns the number of records.
func (c *Collection) Len() int { return c.ds.Len() }

// DomainSize returns the vocabulary size.
func (c *Collection) DomainSize() int { return c.ds.DomainSize() }

// Record returns the item set of record id (1-based). The slice is owned
// by the collection and must not be written to.
func (c *Collection) Record(id uint32) ([]Item, error) {
	if id == 0 || int(id) > c.ds.Len() {
		return nil, fmt.Errorf("setcontain: record %d of %d", id, c.ds.Len())
	}
	return c.ds.Record(int(id - 1)).Set, nil
}

// SetLabels attaches item labels used by Label.
func (c *Collection) SetLabels(labels []string) error { return c.ds.SetLabels(labels) }

// Label returns item's label, or its decimal form if unlabeled.
func (c *Collection) Label(it Item) string { return c.ds.Label(it) }

// ReadCollection parses the text format (one record per line of
// space-separated item ids, optional "domain N" header).
func ReadCollection(r io.Reader) (*Collection, error) {
	ds, err := dataset.Read(r)
	if err != nil {
		return nil, err
	}
	return &Collection{ds: ds}, nil
}

// Write serialises the collection in the text format.
func (c *Collection) Write(w io.Writer) error { return dataset.Write(w, c.ds) }

// ReadMSWebCollection parses the UCI KDD "Anonymous Microsoft Web Data"
// format — the actual msweb log the paper evaluates on — replicating the
// sessions the given number of times (the paper uses 10 to simulate a
// ten-week log). Item labels carry the area titles.
func ReadMSWebCollection(r io.Reader, replicas int) (*Collection, error) {
	ds, err := dataset.ReadMSWeb(r)
	if err != nil {
		return nil, err
	}
	if replicas > 1 {
		ds, err = dataset.Replicate(ds, replicas)
		if err != nil {
			return nil, err
		}
	}
	return &Collection{ds: ds}, nil
}

// Index answers the three containment predicates through whichever
// Engine it wraps. Results are ascending record ids, identical across
// engines.
//
// Every Index method is safe beside every other, mutations included,
// except the Index's own predicates (Subset, Equality, Superset,
// EvalExprLimit) and CacheStats / ResetCacheStats: those share the
// engine's one buffer pool and stay one-goroutine. A mutation (Insert,
// Delete, MergeDelta, and the Store and Durable batches) runs under the
// Index's write lock and bumps its generation before it unlocks; reader
// creation (NewReader, and so every Store query), Save, the record
// counts, ShardPlans and Supports run under the read lock. A Store
// retires a pooled reader whose generation is not the current one, so
// the next Store query after a mutation returns sees it.
//
// Every mutation, entered through Index, Store or Durable, takes one
// path. Over a Durable's index it appends each insert and delete to the
// write-ahead log and commits it before returning, and it fails once the
// Durable is closed. Engine().Insert and the like stay below the log,
// as they stay below the lock.
//
// That lock is the one lock on index state: a sharded Index's is taken
// before its shards' own. Code that holds it calls the engine, never a
// locking Index method — a nested read lock deadlocks once a writer
// waits.
type Index struct {
	eng Engine

	// mu excludes mutations (write side) from everything that reads the
	// engine's state (read side); gen counts the mutations, bumped under
	// the write lock.
	mu  sync.RWMutex
	gen atomic.Uint64
	// prof caches the planning profile of one generation (Supports).
	prof atomic.Pointer[profileAt]
	// dur is the Durable whose log records every mutation, nil for a
	// plain index; it is set under the write lock and read under mu.
	dur *Durable
}

// mutate runs fn under the write lock and bumps the generation before
// it unlocks, whether or not fn failed: a failed batch may have applied
// a prefix. Once the index's Durable is closed it refuses.
func (ix *Index) mutate(fn func() error) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.dur != nil && ix.dur.closed {
		return errDurableClosed
	}
	defer ix.gen.Add(1)
	return fn()
}

// insertSets is the one insert path, one mutation: each set applies to
// the engine and then, with a log attached, is appended to it. A logged
// batch is checked against the log's record size first: a set refused at
// the log after its insert would leave the index and the log disagreeing.
func (ix *Index) insertSets(sets [][]Item) ([]uint32, error) {
	ids := make([]uint32, 0, len(sets))
	var d *Durable
	err := ix.mutate(func() error {
		if d = ix.dur; d != nil {
			for i, set := range sets {
				if len(set) > wal.MaxInsertItems {
					return fmt.Errorf("setcontain: inserting set %d: %w (%d items, max %d)",
						i, wal.ErrRecordTooLarge, len(set), wal.MaxInsertItems)
				}
			}
		}
		for i, set := range sets {
			id, err := ix.eng.Insert(set)
			if err != nil {
				return fmt.Errorf("setcontain: inserting set %d (after %d inserted): %w", i, len(ids), err)
			}
			if d != nil {
				if _, err := d.log.Append(wal.Record{Op: wal.OpInsert, ID: id, Set: set}); err != nil {
					return err
				}
			}
			ids = append(ids, id)
		}
		return nil
	})
	return ids, d.commit(err)
}

// deleteIDs is the one delete path, with insertSets' shape.
func (ix *Index) deleteIDs(ids []uint32) error {
	var d *Durable
	err := ix.mutate(func() error {
		d = ix.dur
		for i, id := range ids {
			if err := ix.eng.Delete(id); err != nil {
				return fmt.Errorf("setcontain: deleting id %d (after %d deleted): %w", id, i, err)
			}
			if d != nil {
				if _, err := d.log.Append(wal.Record{Op: wal.OpDelete, ID: id}); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return d.commit(err)
}

// buildIndex indexes the collection with the engine selected by
// opts.Kind.
func buildIndex(c *Collection, opts Options) (*Index, error) {
	if c == nil || c.ds == nil {
		return nil, errors.New("setcontain: nil collection")
	}
	build, ok := engineBuilders[opts.Kind]
	if !ok {
		return nil, fmt.Errorf("setcontain: unknown index kind %v", opts.Kind)
	}
	eng, err := build(c.ds, opts)
	if err != nil {
		return nil, err
	}
	return &Index{eng: eng}, nil
}

// New indexes the collection, configured by functional options:
//
//	idx, err := setcontain.New(c, setcontain.WithKind(setcontain.OIF),
//		setcontain.WithCachePages(64))
//
// The collection may keep growing afterwards, but new records are
// invisible to the index; use Insert on updatable engines instead.
func New(c *Collection, opts ...Option) (*Index, error) {
	return buildIndex(c, newOptions(opts...))
}

// indexOver wraps an existing engine, used as-is.
func indexOver(e Engine) *Index { return &Index{eng: e} }

// Engine returns the backing engine.
func (ix *Index) Engine() Engine { return ix.eng }

// Kind returns the index implementation in use.
func (ix *Index) Kind() Kind { return ix.eng.Kind() }

// NumRecords returns the number of indexed records, pending inserts
// included.
func (ix *Index) NumRecords() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.eng.NumRecords()
}

// Subset returns ids of records whose sets contain every item of qs.
func (ix *Index) Subset(qs []Item) ([]uint32, error) { return ix.eng.Subset(qs) }

// Equality returns ids of records whose sets equal qs.
func (ix *Index) Equality(qs []Item) ([]uint32, error) { return ix.eng.Equality(qs) }

// Superset returns ids of records whose sets are contained in qs.
func (ix *Index) Superset(qs []Item) ([]uint32, error) { return ix.eng.Superset(qs) }

// ErrNoUpdates reports an engine without update support.
var ErrNoUpdates = errors.New("setcontain: engine does not support updates")

// Insert adds a record to the engine's in-memory delta (visible to
// queries immediately) and returns its id. Supported by OIF,
// InvertedFile, and Sharded; call MergeDelta to fold the delta into the
// disk structures.
func (ix *Index) Insert(set []Item) (uint32, error) {
	ids, err := ix.insertSets([][]Item{set})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// Delete tombstones the record with the given id: it disappears from
// every subsequent answer immediately, its postings are physically
// removed from the disk lists by the next MergeDelta, and its id is
// never reused. Supported by the engines that support Insert. Readers
// created before the delete still serve their original snapshot.
func (ix *Index) Delete(id uint32) error { return ix.deleteIDs([]uint32{id}) }

// Deleted returns the number of tombstoned records.
func (ix *Index) Deleted() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.eng.Deleted()
}

// MergeDelta folds pending inserts and tombstones into the disk
// structures: a cheap list append (plus a list rewrite when deletions
// are pending) for InvertedFile, a full re-sort and rebuild for OIF
// (§4.4 of the paper).
//
// Merging swaps the engine's page file, so a fresh query cache of the
// same capacity is attached afterwards. The fresh cache is seeded with
// the pre-merge counters, so CacheStats stays cumulative across merges;
// the cache contents start cold either way.
func (ix *Index) MergeDelta() error { return ix.mutate(ix.eng.MergeDelta) }

// PendingInserts returns the number of unmerged inserts.
func (ix *Index) PendingInserts() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.eng.PendingInserts()
}

// ErrNoSnapshots reports an engine without snapshot support.
var ErrNoSnapshots = errors.New("setcontain: engine does not support snapshots")

// Save writes a self-contained, self-describing snapshot of the index:
// a container header naming the engine kind followed by the engine's
// own versioned payload (pages or lists, ordering, metadata, pending
// inserts, tombstones), guarded by CRC trailers. Open reconstructs the
// index from it without the original dataset. Supported by OIF,
// InvertedFile, and Sharded; the UBT ablation rebuilds quickly from its
// collection and does not snapshot. Mutations wait while it writes.
func (ix *Index) Save(w io.Writer) error {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.eng.Save(w)
}

// CacheStats reports the index's I/O behaviour since the last reset.
// Counters are cumulative across MergeDelta: the post-merge cache is
// seeded with the pre-merge totals. (A Sharded index reports the
// sessions its own predicate calls run on, which every mutation
// retires: its counters restart there.)
type CacheStats struct {
	Hits       int64 // page requests served from cache
	PageReads  int64 // pages fetched from storage ("disk page accesses")
	Sequential int64 // reads of physically adjacent pages
	Near       int64 // short-jump reads
	Random     int64 // full-seek reads
}

// CacheStats returns accumulated statistics.
func (ix *Index) CacheStats() CacheStats { return ix.eng.Stats() }

// ResetCacheStats zeroes the statistics (the cache contents remain).
func (ix *Index) ResetCacheStats() { ix.eng.ResetStats() }

// DecodedCacheStats is always zero: the decoded-block cache it reported
// on is gone.
//
// Deprecated: kept, with StoreStats.Decoded, only because the frozen
// benchmark harness compiles against it; ROADMAP item 1 deletes both.
type DecodedCacheStats struct {
	Hits, Misses, Evicted int64
}

// NewReader creates a parallel query handle with its own cache of
// cachePages pages (0 selects the default 32 KB). The reader shares the
// index's immutable pages but owns its cache, so one reader per
// goroutine queries in parallel; readers see the mutations made before
// they were created and never the later ones.
func (ix *Index) NewReader(cachePages int) (*Reader, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.eng.NewReader(cachePages)
}
