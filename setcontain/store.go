package setcontain

import (
	"context"
	"errors"
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
// Each query runs on a reader of the Index's current generation (see
// Index), so it sees every mutation that returned before it started.
// Its batches take the Index's one mutation path, logged when a
// Durable has adopted the index.
type Store struct {
	ix         *Index
	cachePages int
	readers    sync.Pool // of *storeReader

	// Aggregate statistics over all pooled readers, accumulated at
	// release time (see storeReader's last* snapshots). Per-field
	// atomics keep the per-query release path free of a store-wide
	// lock; /stats-style readers tolerate the fields being read
	// without a single atomic cut.
	totals storeCounters

	// expr holds the expression planner's counters (see store_expr.go).
	expr exprState
}

// storeCounters is the lock-free accumulator behind Store.Stats.
type storeCounters struct {
	cacheHits, pageReads, seqReads, nearReads, randReads atomic.Int64
}

// storeReader tags a pooled reader with the Index generation it was
// created under, so a mutation retires stale snapshots lazily.
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

// InsertSets inserts the sets in order, as one mutation of the index,
// and returns the assigned ids. On a mid-batch failure the earlier
// inserts stick and their ids are returned alongside the error, which
// names the failing set. Over a Durable's index the batch is logged and
// committed before the call returns; otherwise it lives only in memory.
func (s *Store) InsertSets(sets [][]Item) ([]uint32, error) { return s.ix.insertSets(sets) }

// DeleteIDs tombstones the ids in order, as one mutation; a failure
// names the id. It is logged like InsertSets.
func (s *Store) DeleteIDs(ids []uint32) error { return s.ix.deleteIDs(ids) }

// MergeDelta folds pending inserts and tombstones into the disk
// structures (Index.MergeDelta).
func (s *Store) MergeDelta() error { return s.ix.MergeDelta() }

// acquire returns a reader of the current generation, creating one when
// the pool is empty or holds only stale snapshots.
func (s *Store) acquire() (*storeReader, error) {
	// Loaded before the reader is made, so a tag is never newer than
	// the state the reader holds.
	gen := s.ix.gen.Load()
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
	r, err := s.ix.NewReader(s.cachePages)
	if err != nil {
		return nil, err
	}
	return &storeReader{r: r, gen: gen}, nil
}

func (s *Store) release(e *storeReader) {
	e.r.setInterrupt(nil)
	e.ctx = nil
	s.accumulate(e)
	if e.gen == s.ix.gen.Load() {
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
// AppendExpr and Index.EvalExprLimit all answer through request.answer.
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

// answer is the request core and its one routing decision: it answers
// the request on t — an engine, its reader, or a sharded reader — and
// appends to rq.dst. On a sharded reader every request, a plain leaf
// included, is validated and pushed whole to every shard, which plans
// it against its own supports. Otherwise a plain leaf runs unplanned,
// and a tree is planned against ix's profile and evaluated through
// evr. The stats are zero for a plain leaf, and sum the in-process
// shards' for a pushed-down tree. ctx reaches the shard calls; a single
// engine's reader stops on the interrupt hook its caller armed.
func (rq *request) answer(ctx context.Context, t Queryable, ix *Index, evr *Evaluator) ([]uint32, ExprEvalStats, error) {
	if rq.limit < 0 {
		return nil, ExprEvalStats{}, ErrNegativeLimit
	}
	if sr, ok := backendOf(t).(*shardedReader); ok {
		ids, st, err := sr.scatterExpr(ctx, rq.expr(), rq.limit)
		if err != nil {
			return nil, st, err
		}
		return appendFresh(rq.dst, ids), st, nil
	}
	if q, leaf := rq.asLeaf(); leaf {
		ids, err := q.EvalAppend(rq.dst, t)
		return ids, ExprEvalStats{}, err
	}
	plan, err := PlanExpr(rq.expr(), ix.Supports())
	if err != nil {
		return nil, ExprEvalStats{}, err
	}
	return evr.EvalLimitAppend(rq.dst, plan, t, rq.limit)
}

// run is the one execution path above the engine; every public Exec*
// form is an adapter over it. The request is answered on one pooled
// reader whose interrupt hook consults ctx, and a tree answered is
// recorded in ExprStats.
func (s *Store) run(ctx context.Context, rq request) ([]uint32, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e, err := s.acquire()
	if err != nil {
		return nil, err
	}
	defer s.release(e)
	if ctx.Done() != nil {
		e.arm(ctx)
	}
	ids, st, err := rq.answer(ctx, e.r, s.ix, &e.eval)
	if _, leaf := rq.asLeaf(); err == nil && !leaf {
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
