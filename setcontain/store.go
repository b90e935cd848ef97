package setcontain

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Store is a concurrency-safe query facade over an Index. It owns a
// sync.Pool of per-goroutine Readers, so any number of goroutines can
// Exec queries in parallel without managing readers themselves; each
// call borrows an isolated reader (cache and statistics included) and
// returns it when done.
//
// Every Exec* form is a thin adapter over one request core (Store.run),
// so the forms differ only in how the request and its answer are
// spelled. All of them honour context cancellation: the borrowed reader's
// buffer pool checks ctx.Err between list-block reads, so even a query
// scanning a long inverted list stops promptly, returning ctx.Err().
// Over a Sharded index the Store is a router: it validates a request and
// forwards it to every shard, which plans it against its own supports,
// under one ctx — so a cancelled query stops all shard fan-outs mid-stream.
//
// A Store serves the snapshot its readers were created from. After
// Insert, Delete, or MergeDelta on the underlying Index, call Refresh
// to retire pooled readers so subsequent queries see the change. To
// mutate the Index while queries are in flight, wrap the mutation in
// Update — it excludes the store's reader creation (which snapshots the
// Index's state) for the mutation's duration and refreshes afterwards;
// mutating the Index directly is only safe when no Store call can run
// concurrently.
type Store struct {
	ix         *Index
	cachePages int
	gen        atomic.Uint64
	readers    sync.Pool // of *storeReader

	// mu excludes Index mutations (Update's write side) from pooled
	// reader creation (acquire's read side): NewReader snapshots the
	// Index's mutable state, so it must not observe a half-applied
	// Insert/Delete/MergeDelta. Pooled readers already created are
	// isolated clones and need no lock.
	mu sync.RWMutex

	// Aggregate statistics over all pooled readers, accumulated at
	// release time (see storeReader's last* snapshots). Per-field
	// atomics keep the per-query release path free of a store-wide
	// lock; /stats-style readers tolerate the fields being read
	// without a single atomic cut.
	totals storeCounters

	// expr holds the expression planner's generation-cached support
	// profile and counters (see store_expr.go).
	expr exprState
}

// storeCounters is the lock-free accumulator behind Store.Stats.
type storeCounters struct {
	cacheHits, pageReads, seqReads, nearReads, randReads atomic.Int64
}

// storeReader tags a pooled reader with the store generation it was
// created under, so Refresh can retire stale snapshots lazily.
// lastCache snapshots the reader's cumulative statistics at its
// previous release, so each release folds only the delta of the query
// it just served into the store-wide totals.
type storeReader struct {
	r         *Reader
	gen       uint64
	lastCache CacheStats

	// eval is the reader's persistent expression evaluator: its free
	// list survives across the queries this pooled reader serves, so
	// steady-state expression evaluation allocates nothing.
	eval Evaluator

	// ctx is the context of the request the reader is serving, which
	// hook consults. hook is created once per storeReader and reused, so
	// arming cancellation on the hot path allocates nothing.
	ctx  context.Context
	hook func() error
}

// arm installs the reader's reusable interrupt hook scoped to ctx;
// release clears it again.
func (e *storeReader) arm(ctx context.Context) {
	if e.hook == nil {
		e.hook = func() error { return e.ctx.Err() }
	}
	e.ctx = ctx
	e.r.setInterrupt(e.hook)
}

// NewStore returns a store over ix whose pooled readers each carry a
// private cache of cachePages pages (0 selects the default 32 KB). The
// budget is per inner reader: over a Sharded index every pooled reader
// holds one such cache per shard, so its footprint is cachePages times
// the shard count — divide accordingly when comparing against (or
// migrating from) a single-engine store under a fixed memory budget.
func NewStore(ix *Index, cachePages int) *Store {
	return &Store{ix: ix, cachePages: cachePages}
}

// Refresh retires the pooled readers: queries issued after Refresh run
// on readers created from the index's current state. Call it after
// Insert, Delete, or MergeDelta on the underlying Index.
func (s *Store) Refresh() { s.gen.Add(1) }

// Update runs fn — a mutation of the underlying Index such as Insert,
// Delete, or MergeDelta — while no pooled reader is being created, then
// refreshes the store so subsequent queries observe the change. This is
// the safe way to mutate a served index: in-flight queries keep running
// on their isolated readers, new queries wait only for the mutation
// itself. The serve package's /admin endpoints mutate through it.
func (s *Store) Update(fn func() error) error {
	s.mu.Lock()
	err := fn()
	s.mu.Unlock()
	s.Refresh()
	return err
}

// Mutator is the batched mutation surface the serving layer writes
// through, implemented by both Store (plain, in-memory only) and
// Durable (write-ahead logged): the handlers stay identical whether the
// deployment wants durability or not, and the ack-after-durable rule
// lives in exactly one place (Durable) instead of being sprinkled
// through HTTP code.
type Mutator interface {
	// InsertSets inserts the sets in order and returns the assigned ids.
	// On a mid-batch failure the earlier inserts stick and their ids are
	// returned alongside the error, which names the failing set.
	InsertSets(sets [][]Item) ([]uint32, error)
	// DeleteIDs tombstones the ids in order; a failure names the id.
	DeleteIDs(ids []uint32) error
	// MergeDelta folds pending inserts and tombstones into the disk
	// structures.
	MergeDelta() error
}

// InsertSets implements Mutator over the plain store: inserts apply to
// the index under Update and are acknowledged immediately — they live
// only in memory and die with the process.
func (s *Store) InsertSets(sets [][]Item) ([]uint32, error) {
	ids := make([]uint32, 0, len(sets))
	err := s.Update(func() error {
		for i, set := range sets {
			id, err := s.ix.Insert(set)
			if err != nil {
				return fmt.Errorf("setcontain: inserting set %d (after %d inserted): %w", i, len(ids), err)
			}
			ids = append(ids, id)
		}
		return nil
	})
	return ids, err
}

// DeleteIDs implements Mutator over the plain store.
func (s *Store) DeleteIDs(ids []uint32) error {
	return s.Update(func() error {
		for i, id := range ids {
			if err := s.ix.Delete(id); err != nil {
				return fmt.Errorf("setcontain: deleting id %d (after %d deleted): %w", id, i, err)
			}
		}
		return nil
	})
}

// MergeDelta implements Mutator over the plain store.
func (s *Store) MergeDelta() error {
	return s.Update(s.ix.MergeDelta)
}

// acquire returns a reader of the current generation, creating one when
// the pool is empty or holds only stale snapshots.
func (s *Store) acquire() (*storeReader, error) {
	gen := s.gen.Load()
	for {
		e, _ := s.readers.Get().(*storeReader)
		if e == nil {
			break // pool empty: create fresh
		}
		if e.gen == gen {
			return e, nil
		}
		// Stale snapshot: drop it and keep looking.
	}
	s.mu.RLock()
	r, err := s.ix.NewReader(s.cachePages)
	s.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	return &storeReader{r: r, gen: gen}, nil
}

func (s *Store) release(e *storeReader) {
	e.r.setInterrupt(nil)
	e.ctx = nil
	s.accumulate(e)
	if e.gen == s.gen.Load() {
		s.readers.Put(e)
	}
}

// accumulate folds the reader's statistics delta since its previous
// release into the store-wide totals.
func (s *Store) accumulate(e *storeReader) {
	cache := e.r.CacheStats()
	t := &s.totals
	t.cacheHits.Add(cache.Hits - e.lastCache.Hits)
	t.pageReads.Add(cache.PageReads - e.lastCache.PageReads)
	t.seqReads.Add(cache.Sequential - e.lastCache.Sequential)
	t.nearReads.Add(cache.Near - e.lastCache.Near)
	t.randReads.Add(cache.Random - e.lastCache.Random)
	e.lastCache = cache
}

// StoreStats aggregates the I/O statistics of every reader a Store has
// pooled, the serving-side counterpart of Index.CacheStats (which
// reports the engine's own single-stream pool).
type StoreStats struct {
	// Cache is the summed page-cache behaviour of the pooled readers.
	Cache CacheStats
	// Decoded is always zero.
	//
	// Deprecated: kept for the frozen benchmark harness; ROADMAP item 1
	// deletes it with DecodedCacheStats.
	Decoded DecodedCacheStats
}

// Stats returns statistics aggregated across all pooled readers. Totals
// advance when a query's reader is released, so in-flight queries
// contribute after they finish. Each field is read atomically; the
// snapshot as a whole is not one atomic cut.
func (s *Store) Stats() StoreStats {
	t := &s.totals
	return StoreStats{
		Cache: CacheStats{
			Hits:       t.cacheHits.Load(),
			PageReads:  t.pageReads.Load(),
			Sequential: t.seqReads.Load(),
			Near:       t.nearReads.Load(),
			Random:     t.randReads.Load(),
		},
	}
}

// ErrNegativeLimit reports a negative first-n limit; the serving layer
// maps it to a 400.
var ErrNegativeLimit = errors.New("setcontain: negative limit")

// request is one query through the request core: a containment query
// or a boolean expression, an optional first-n limit, and the
// caller-owned append target. Store.run, the in-process shard session's
// AppendExpr and Index.EvalExprLimit all answer through it.
type request struct {
	// q is the containment query to answer, unless e is set.
	q Query
	// e, when non-nil, is the boolean expression to answer instead.
	e *Expr
	// limit truncates the answer to its first limit ids; 0 means the
	// full answer, negative fails the request with ErrNegativeLimit.
	limit int
	// dst is the append target; the caller owns it throughout.
	dst []uint32
}

// asLeaf returns the request as a plain containment query when it is
// one (a bare Query or a one-leaf expression, with no limit): the shape
// the engines answer directly, so it skips the planner.
func (rq *request) asLeaf() (Query, bool) {
	if rq.limit != 0 {
		return Query{}, false
	}
	if rq.e == nil {
		return rq.q, true
	}
	return rq.e.AsQuery()
}

// expr returns the request in expression form.
func (rq *request) expr() *Expr {
	if rq.e == nil {
		return ExprOf(rq.q)
	}
	return rq.e
}

// isTree is the core's single decision point: it rejects a negative
// limit and reports whether the request is a tree — anything but one
// plain leaf — which whoever executes it plans and a router validates
// and forwards.
func (rq *request) isTree() (bool, error) {
	if rq.limit < 0 {
		return false, ErrNegativeLimit
	}
	_, leaf := rq.asLeaf()
	return !leaf, nil
}

// exec answers the request on t, a single engine or its reader: the
// leaf fast path when plan is nil, else planned evaluation through evr.
// The stats are zero for a plain leaf.
func (rq *request) exec(t Queryable, plan *ExprPlan, evr *Evaluator) ([]uint32, ExprEvalStats, error) {
	if plan == nil {
		q, _ := rq.asLeaf()
		ids, err := q.EvalAppend(rq.dst, t)
		return ids, ExprEvalStats{}, err
	}
	return evr.EvalLimitAppend(rq.dst, plan, t, rq.limit)
}

// planExec is the request core outside a Store — the in-process shard
// session's AppendExpr and Index.EvalExprLimit: plan a tree against
// sup's profile, exec on t.
func (rq *request) planExec(t Queryable, sup interface{ Supports() *SupportProfile }, evr *Evaluator) ([]uint32, ExprEvalStats, error) {
	tree, err := rq.isTree()
	var plan *ExprPlan
	if tree {
		plan, err = PlanExpr(rq.expr(), sup.Supports())
	}
	if err != nil {
		return nil, ExprEvalStats{}, err
	}
	return rq.exec(t, plan, evr)
}

// run is the one execution path above the engine; every public Exec*
// form (and, through planExec, the in-process shard session) is an
// adapter over it. The request is answered on one pooled reader whose
// interrupt hook consults ctx, and a planned evaluation is recorded in
// ExprStats. Over a sharded index nothing is planned here: a tree is
// validated and forwarded.
func (s *Store) run(ctx context.Context, rq request) ([]uint32, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tree, err := rq.isTree()
	if err != nil {
		return nil, err
	}
	_, router := s.ix.eng.(*shardedEngine)
	var plan *ExprPlan
	switch {
	case !tree:
	case router:
		err = rq.expr().validate()
	default:
		plan, err = PlanExpr(rq.expr(), s.Supports())
	}
	if err != nil {
		return nil, err
	}
	e, err := s.acquire()
	if err != nil {
		return nil, err
	}
	defer s.release(e)
	if router {
		return s.execSharded(ctx, &rq, e.r.r.(*shardedReader))
	}
	if ctx.Done() != nil {
		e.arm(ctx)
	}
	ids, st, err := rq.exec(e.r, plan, &e.eval)
	if plan != nil && err == nil {
		s.noteExprEval(st)
	}
	return ids, err
}

// orEmpty is the plain forms' half of the empty-answer rule: append
// forms return dst itself when nothing matched (nil stays nil), plain
// forms a non-nil empty slice.
func orEmpty(ids []uint32) []uint32 {
	if ids == nil {
		return []uint32{}
	}
	return ids
}

// Exec answers q on a pooled reader and returns the ascending ids, a
// non-nil empty slice when nothing matched. It is safe for any number
// of concurrent callers. Cancellation of ctx is checked before the
// query and between list-block reads during it; the returned error is
// then ctx.Err() (context.Canceled or context.DeadlineExceeded).
func (s *Store) Exec(ctx context.Context, q Query) ([]uint32, error) {
	ids, err := s.ExecAppend(ctx, nil, q)
	if err != nil {
		return nil, err
	}
	return orEmpty(ids), nil
}

// ExecAppend answers q on a pooled reader, appending the answer to dst
// and returning the extended slice (dst itself when nothing matched) —
// the zero-allocation serving form: with an OIF engine, warm caches,
// and a dst with capacity to spare, a steady-state call performs no
// heap allocations at all. The dst slice is owned by the caller
// throughout; pooled readers never retain it. Cancellation behaves
// exactly like Exec.
func (s *Store) ExecAppend(ctx context.Context, dst []uint32, q Query) ([]uint32, error) {
	return s.run(ctx, request{q: q, dst: dst})
}

// ExecExprAppend answers a boolean expression on a pooled reader,
// appending the answer to dst. A one-leaf expression is ExecAppend —
// identical behaviour and cost, and not counted in ExprStats. Anything
// else is planned: leaves evaluate through the reader's zero-allocation
// Append path (streaming into the accumulated candidate set where the
// engine supports it), intermediates recycle inside the reader's
// persistent evaluator, and over a sharded index the whole plan is
// pushed down to every shard in parallel. Cancellation behaves like
// Exec, across every shard.
func (s *Store) ExecExprAppend(ctx context.Context, dst []uint32, expr *Expr) ([]uint32, error) {
	return s.ExecExprLimitAppend(ctx, dst, expr, 0)
}

// ExecExprLimitAppend appends the first n ids of the expression's
// answer — exactly the prefix of what ExecExprAppend would append. The
// plan is evaluated once and cut to n ids (see
// Evaluator.EvalLimitAppend); over a sharded index each shard evaluates
// under the same per-shard limit before the k-way merge truncates
// globally. n == 0 means no limit; a negative n returns
// ErrNegativeLimit. With n > 0 even a one-leaf expression is planned.
func (s *Store) ExecExprLimitAppend(ctx context.Context, dst []uint32, expr *Expr, n int) ([]uint32, error) {
	if expr == nil {
		return nil, errNilExpr
	}
	return s.run(ctx, request{e: expr, limit: n, dst: dst})
}

// ExecBatch answers the queries concurrently across pooled readers
// (bounded by GOMAXPROCS) and returns the answers in query order, each
// as Exec would. The first error cancels the remaining queries and is
// returned; results are nil in that case. A cancelled ctx aborts the
// whole batch with ctx.Err().
func (s *Store) ExecBatch(ctx context.Context, qs []Query) ([][]uint32, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([][]uint32, len(qs))
	errs := fanOut(ctx, len(qs), 0, func(cctx context.Context, i int) (err error) {
		out[i], err = s.Exec(cctx, qs[i])
		return err
	})
	if _, err := firstCause(ctx, errs); err != nil {
		return nil, err
	}
	return out, nil
}
