package setcontain

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/invfile"
	"repro/internal/storage"
	"repro/internal/ubtree"
)

// Engine is the uniform backend interface every index kind implements:
// the three containment predicates, the update path, parallel reader
// creation, and the I/O instrumentation the paper's evaluation rests on.
// Engines are selected through the Kind registry (New) or wrapped
// directly with EngineOf; Index and Store are thin facades over one.
//
// Engines that lack a capability return an error wrapping the sentinels
// ErrNoUpdates (Insert, Delete, MergeDelta) or ErrNoSnapshots (Save)
// rather than omitting the method, so callers can feature-test with
// errors.Is while the message names the offending engine kind.
//
// Pool and SetPool expose the engine's buffer pool for the in-module
// measurement layer (the pool type lives in an internal package); they
// re-point the engine at a caller-owned cache, which is how experiments
// meter page accesses under the paper's 32 KB budget.
//
// An Engine is not safe for concurrent use; NewReader hands out
// isolated handles that are. An Index orders its Engine's mutations
// against reader creation.
type Engine interface {
	// Kind identifies the engine in the registry.
	Kind() Kind
	// NumRecords returns the number of indexed records, pending
	// inserts included.
	NumRecords() int
	// DomainSize returns the vocabulary size.
	DomainSize() int

	// Subset returns ids of records whose sets contain every item of qs.
	Subset(qs []Item) ([]uint32, error)
	// Equality returns ids of records whose sets equal qs.
	Equality(qs []Item) ([]uint32, error)
	// Superset returns ids of records whose sets are contained in qs.
	Superset(qs []Item) ([]uint32, error)

	// Insert adds a record to the in-memory delta, visible immediately.
	Insert(set []Item) (uint32, error)
	// Delete tombstones a record id: masked from answers immediately,
	// physically removed by MergeDelta, never reused.
	Delete(id uint32) error
	// Deleted returns the number of tombstoned records.
	Deleted() int
	// MergeDelta folds pending inserts and tombstones into the disk
	// structures and re-attaches a fresh query cache seeded with the
	// previous cache's statistics (counters stay cumulative).
	MergeDelta() error
	// PendingInserts returns the number of unmerged inserts.
	PendingInserts() int

	// NewReader creates an isolated parallel query handle.
	NewReader(cachePages int) (*Reader, error)
	// Save writes a self-contained snapshot.
	Save(w io.Writer) error

	// ItemSupports returns the per-item support table (index = item id,
	// value = records containing the item in the merged structures) the
	// expression planner costs containment leaves with. Pending delta
	// inserts and tombstones are not reflected; the table is a planning
	// estimate, not an answer. The caller owns the returned slice.
	ItemSupports() []int64

	// Space reports the persistent footprint.
	Space() SpaceInfo
	// Stats reports I/O behaviour since the last reset.
	Stats() CacheStats
	// ResetStats zeroes the statistics.
	ResetStats()

	// SetPool re-points the engine at pool (metering hook).
	SetPool(pool *storage.BufferPool) error
	// Pool returns the active buffer pool (metering hook).
	Pool() *storage.BufferPool
	// Unwrap returns the backend index (*core.Index, *invfile.Index, or
	// *ubtree.Index; a sharded engine's []ShardClient) for measurement
	// code that needs kind-specific details (space breakdowns, the OIF
	// ordering).
	Unwrap() any
}

// SpaceInfo is an engine's persistent footprint.
type SpaceInfo struct {
	Pages int64 // pages allocated by the index file
	Bytes int64 // Pages times the page size
}

// engineBuilders is the Kind registry consulted by New.
var engineBuilders = map[Kind]func(*dataset.Dataset, Options) (Engine, error){
	OIF:            buildOIFEngine,
	InvertedFile:   buildInvEngine,
	UnorderedBTree: buildUBTEngine,
	Sharded:        buildShardedEngine,
}

// EngineOf wraps an already-built backend index (*core.Index,
// *invfile.Index, or *ubtree.Index) in its Engine adapter. The backend's
// current buffer pool is kept; this is the entry point for measurement
// code that builds backends with non-default knobs.
func EngineOf(backend any) (Engine, error) {
	switch ix := backend.(type) {
	case *core.Index:
		return &oifEngine{updatableEngine{baseEngine{b: ix, kind: OIF}, ix}}, nil
	case *invfile.Index:
		return &invEngine{updatableEngine{baseEngine{b: ix, kind: InvertedFile}, ix}}, nil
	case *ubtree.Index:
		return &ubtEngine{baseEngine{b: ix, kind: UnorderedBTree}}, nil
	default:
		return nil, fmt.Errorf("setcontain: no engine adapter for %T", backend)
	}
}

// backend is the surface the three index implementations share; the
// per-kind adapters add what differs (updates, snapshots, readers,
// space accounting).
type backend interface {
	Queryable
	NumRecords() int
	DomainSize() int
	ItemSupports() []int64
	SetPool(pool *storage.BufferPool) error
	Pool() *storage.BufferPool
}

// baseEngine implements the Engine methods every backend shares
// identically; the kind-specific adapters embed it.
type baseEngine struct {
	b    backend
	kind Kind
}

func (e *baseEngine) Kind() Kind            { return e.kind }
func (e *baseEngine) NumRecords() int       { return e.b.NumRecords() }
func (e *baseEngine) DomainSize() int       { return e.b.DomainSize() }
func (e *baseEngine) ItemSupports() []int64 { return e.b.ItemSupports() }
func (e *baseEngine) Unwrap() any           { return e.b }

func (e *baseEngine) Subset(qs []Item) ([]uint32, error)   { return e.b.Subset(qs) }
func (e *baseEngine) Equality(qs []Item) ([]uint32, error) { return e.b.Equality(qs) }
func (e *baseEngine) Superset(qs []Item) ([]uint32, error) { return e.b.Superset(qs) }

func (e *baseEngine) Stats() CacheStats { return cacheStatsOf(e.b.Pool().Stats()) }
func (e *baseEngine) ResetStats()       { e.b.Pool().ResetStats() }

func (e *baseEngine) SetPool(pool *storage.BufferPool) error { return e.b.SetPool(pool) }
func (e *baseEngine) Pool() *storage.BufferPool              { return e.b.Pool() }

// Space is the footprint of a backend whose persistent state is exactly
// its pager's pages (the OIF and UBT trees; the inverted file overrides
// it with its list pages).
func (e *baseEngine) Space() SpaceInfo {
	pool := e.b.Pool()
	pages := pool.Pager().NumPages()
	return SpaceInfo{Pages: pages, Bytes: pages * int64(pool.PageSize())}
}

// attachCache replaces the backend's current pool with a query cache of
// the given page count over the same pager.
func attachCache(b backend, pages int) error {
	return b.SetPool(storage.NewBufferPool(b.Pool().Pager(), pages))
}

// attach gives a freshly built or restored backend its query cache and
// its Engine adapter.
func attach(b backend, opts Options) (Engine, error) {
	if err := attachCache(b, opts.CachePages); err != nil {
		return nil, err
	}
	return EngineOf(b)
}

// capabilityError wraps a capability sentinel with the engine kind, so
// errors.Is(err, ErrNoUpdates/ErrNoSnapshots) still matches while the
// message identifies the offending engine.
type capabilityError struct {
	kind     Kind
	sentinel error
}

func (e *capabilityError) Error() string {
	switch e.sentinel {
	case ErrNoUpdates:
		return fmt.Sprintf("setcontain: %s engine does not support updates", e.kind)
	case ErrNoSnapshots:
		return fmt.Sprintf("setcontain: %s engine does not support snapshots", e.kind)
	}
	return fmt.Sprintf("setcontain: %s engine: %v", e.kind, e.sentinel)
}

func (e *capabilityError) Unwrap() error { return e.sentinel }

// newReader applies the default cache size and boxes the reader a
// backend's NewReader opens.
func newReader[R engineReader](cachePages int, open func(int) (R, error)) (*Reader, error) {
	if cachePages <= 0 {
		cachePages = storage.DefaultPoolPages
	}
	r, err := open(cachePages)
	if err != nil {
		return nil, err
	}
	return &Reader{r: r}, nil
}

func cacheStatsOf(s storage.AccessStats) CacheStats {
	return CacheStats{
		Hits:       s.Hits,
		PageReads:  s.Misses,
		Sequential: s.SeqMisses,
		Near:       s.NearMisses,
		Random:     s.RandMisses,
	}
}

// --- Updatable backends (OIF, inverted file) ---------------------------

// updatable is the §4.4 update and snapshot surface the OIF and the
// inverted file expose identically: both hold one overlay of pending
// inserts and tombstones (internal/overlay) and differ only in what
// their MergeDelta does with it.
type updatable interface {
	Insert(set []Item) (uint32, error)
	Delete(id uint32) error
	Deleted() int
	MergeDelta() error
	DeltaLen() int
	Save(w io.Writer) error
}

// updatableEngine spells the Engine update and snapshot methods once
// for both adapters: Insert, Delete and Deleted are the backend's own,
// promoted from the embedded interface (the same index as baseEngine's
// b); MergeDelta and Save wrap the backend's.
type updatableEngine struct {
	baseEngine
	updatable
}

func (e *updatableEngine) PendingInserts() int { return e.DeltaLen() }

// MergeDelta runs the backend's delta merge and re-attaches a fresh
// cache of the previous capacity: the merge swaps the page file, so the
// old pool's frames cannot carry over. Its statistics do — the new pool
// is seeded with the pre-merge counters, keeping CacheStats cumulative
// across merges.
func (e *updatableEngine) MergeDelta() error {
	capacity := e.b.Pool().Capacity()
	pre := e.b.Pool().Stats()
	if err := e.updatable.MergeDelta(); err != nil {
		return err
	}
	if err := attachCache(e.b, capacity); err != nil {
		return err
	}
	e.b.Pool().AddStats(pre)
	return nil
}

// Save writes the self-describing engine container (see Open): the
// header names the kind, the payload is the backend's own versioned
// snapshot stream.
func (e *updatableEngine) Save(w io.Writer) error {
	return saveContainer(w, e.kind, e.b.Pool().Capacity(), e.updatable.Save)
}

// --- OIF ----------------------------------------------------------------

type oifEngine struct {
	updatableEngine
}

func (e *oifEngine) ix() *core.Index { return e.b.(*core.Index) }

func buildOIFEngine(ds *dataset.Dataset, opts Options) (Engine, error) {
	ix, err := core.Build(ds, core.Options{
		PageSize:      opts.PageSize,
		BlockPostings: opts.BlockPostings,
	})
	if err != nil {
		return nil, err
	}
	return attach(ix, opts)
}

func (e *oifEngine) NewReader(cachePages int) (*Reader, error) {
	return newReader(cachePages, e.ix().NewReader)
}

// --- Inverted file ------------------------------------------------------

type invEngine struct {
	updatableEngine
}

func (e *invEngine) ix() *invfile.Index { return e.b.(*invfile.Index) }

func buildInvEngine(ds *dataset.Dataset, opts Options) (Engine, error) {
	ix, err := invfile.Build(ds, invfile.BuildOptions{PageSize: opts.PageSize})
	if err != nil {
		return nil, err
	}
	return attach(ix, opts)
}

func (e *invEngine) NewReader(cachePages int) (*Reader, error) {
	return newReader(cachePages, e.ix().NewReader)
}

func (e *invEngine) Space() SpaceInfo {
	pages := e.ix().ListPages()
	return SpaceInfo{Pages: pages, Bytes: pages * int64(e.b.Pool().PageSize())}
}

// --- Unordered B-tree ---------------------------------------------------

type ubtEngine struct {
	baseEngine
}

func buildUBTEngine(ds *dataset.Dataset, opts Options) (Engine, error) {
	ix, err := ubtree.Build(ds, ubtree.Options{
		PageSize:      opts.PageSize,
		BlockPostings: opts.BlockPostings,
	})
	if err != nil {
		return nil, err
	}
	return attach(ix, opts)
}

func (e *ubtEngine) Insert([]Item) (uint32, error) {
	return 0, &capabilityError{UnorderedBTree, ErrNoUpdates}
}
func (e *ubtEngine) Delete(uint32) error { return &capabilityError{UnorderedBTree, ErrNoUpdates} }
func (e *ubtEngine) Deleted() int        { return 0 }
func (e *ubtEngine) MergeDelta() error   { return &capabilityError{UnorderedBTree, ErrNoUpdates} }
func (e *ubtEngine) PendingInserts() int { return 0 }

func (e *ubtEngine) NewReader(cachePages int) (*Reader, error) {
	return newReader(cachePages, e.b.(*ubtree.Index).NewReader)
}

func (e *ubtEngine) Save(io.Writer) error { return &capabilityError{UnorderedBTree, ErrNoSnapshots} }
