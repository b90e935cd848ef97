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

	// Cancellation state consulted by hook: batch spans a whole
	// Store.run call, item narrows to the request currently executing.
	// hook is created once per storeReader and reused, so arming
	// cancellation on the hot path allocates nothing.
	batch context.Context
	item  context.Context
	hook  func() error
}

// arm installs the reader's reusable interrupt hook scoped to batch
// (and initially item = batch); Store.run narrows item per request, and
// release clears the hook again.
func (e *storeReader) arm(batch context.Context) {
	if e.hook == nil {
		e.hook = func() error {
			if err := e.batch.Err(); err != nil {
				return err
			}
			return e.item.Err()
		}
	}
	e.batch, e.item = batch, batch
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
	e.batch, e.item = nil, nil
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

// BatchItem is one request of an ExecBatchAppend call: a containment
// query or a boolean expression, an optional first-n limit, the
// caller-owned append target, and (after the call) its answer or error.
type BatchItem struct {
	// Ctx optionally scopes this item alone: a cancelled or expired
	// per-item context fails the item with its error without disturbing
	// the rest of the batch. Nil means the batch context governs.
	Ctx context.Context
	// Query is the containment query to answer, unless Expr is set.
	Query Query
	// Expr, when non-nil, is the boolean expression to answer instead.
	Expr *Expr
	// Limit truncates the answer to its first Limit ids; 0 means the
	// full answer, negative fails the item with ErrNegativeLimit.
	Limit int
	// Dst is the append target; the caller owns it throughout.
	Dst []uint32
	// Out receives the extended Dst slice on success — Dst itself when
	// nothing matched — and nil on error.
	Out []uint32
	// Err receives this item's error.
	Err error

	// plan is the core's leaf-vs-tree decision (see prepare): nil runs
	// the item as one plain query, straight on the reader.
	plan *ExprPlan
}

// asLeaf returns the item as a plain containment query when it is one
// (a bare Query or a one-leaf expression, with no limit): the request
// shape the engines answer directly, so it skips the planner.
func (it *BatchItem) asLeaf() (Query, bool) {
	if it.Limit != 0 {
		return Query{}, false
	}
	if it.Expr == nil {
		return it.Query, true
	}
	return it.Expr.AsQuery()
}

// expr returns the item's request in expression form.
func (it *BatchItem) expr() *Expr {
	if it.Expr == nil {
		return ExprOf(it.Query)
	}
	return it.Expr
}

// prepare is the core's single decision point: it clears the item's
// results, rejects a negative limit, and reports whether the item is a
// tree — anything but one plain leaf — which whoever executes it plans
// (it.plan stays nil otherwise) and a router validates and forwards.
func (it *BatchItem) prepare() (tree bool) {
	it.Out, it.Err, it.plan = nil, nil, nil
	if it.Limit < 0 {
		it.Err = ErrNegativeLimit
		return false
	}
	_, leaf := it.asLeaf()
	return !leaf
}

// exec answers one prepared item on t, a single engine or its reader:
// the leaf fast path, or planned evaluation through evr with the batch's
// subexpression cache. The stats are zero for a plain leaf.
func (it *BatchItem) exec(t Queryable, evr *Evaluator, cse *cseState) ([]uint32, ExprEvalStats, error) {
	if it.plan == nil {
		q, _ := it.asLeaf()
		ids, err := q.EvalAppend(it.Dst, t)
		return ids, ExprEvalStats{}, err
	}
	return evr.run(it.Dst, it.plan, t, cse, it.Limit)
}

// planExec is the request core for one item outside a Store batch — the
// in-process shard session's AppendExpr and Index.EvalExprLimit: prepare,
// plan a tree against sup's profile, exec on t.
func (it *BatchItem) planExec(t Queryable, sup interface{ Supports() *SupportProfile }, evr *Evaluator) ([]uint32, ExprEvalStats, error) {
	if it.prepare() {
		it.plan, it.Err = PlanExpr(it.expr(), sup.Supports())
	}
	if it.Err != nil {
		return nil, ExprEvalStats{}, it.Err
	}
	return it.exec(t, evr, nil)
}

// run is the one execution path above the engine; every public Exec*
// form (and, through prepare/exec, the in-process shard session) is an
// adapter over it. The items are answered in order on a single pooled
// reader: each is prepared (leaf or plan), the reader's interrupt hook
// is armed once and narrowed per item, and planned evaluations are
// recorded in ExprStats. With share set, plan subtrees repeated across
// the items evaluate once. Over a sharded index nothing is planned here:
// a tree is validated and forwarded. The count and error are
// ExecBatchAppend's.
func (s *Store) run(ctx context.Context, items []BatchItem, share bool) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	_, router := s.ix.eng.(*shardedEngine)
	planned := false
	for i := range items {
		it := &items[i]
		switch tree := it.prepare(); {
		case !tree:
		case router:
			it.Err = it.expr().validate()
		default:
			it.plan, it.Err = PlanExpr(it.expr(), s.Supports())
			planned = planned || it.plan != nil
		}
	}
	var cse *cseState
	if share && planned {
		cse = collectCSE(items)
	}
	e, err := s.acquire()
	if err != nil {
		return 0, err
	}
	defer s.release(e)
	// The reader's single reusable interrupt hook serves the whole
	// call: it consults ctx plus whichever item is currently executing,
	// so cancellation support costs two pointer reads per page access
	// and no per-item closures.
	armed := false
	n := len(items)
	for i := range items {
		if err = ctx.Err(); err != nil {
			n = i
			break
		}
		it := &items[i]
		if it.Err != nil {
			continue // prepare already failed the item
		}
		ictx := it.Ctx
		if ictx == nil {
			ictx = ctx
		}
		if it.Err = ictx.Err(); it.Err != nil {
			continue
		}
		if router {
			it.Out, it.Err = s.execSharded(ctx, it, e.r.r.(*shardedReader))
			continue
		}
		if !armed && (ictx.Done() != nil || ctx.Done() != nil) {
			armed = true
			e.arm(ctx)
		}
		if armed {
			e.item = ictx
		}
		var st ExprEvalStats
		it.Out, st, it.Err = it.exec(e.r, &e.eval, cse)
		if it.plan != nil && it.Err == nil {
			s.noteExprEval(st)
		}
	}
	// Fold the cache counters even when ctx cut the batch short: the
	// hits before the cancel were real work saved.
	s.noteCSE(cse)
	return n, err
}

// one runs a single request through the core.
func (s *Store) one(ctx context.Context, it BatchItem) ([]uint32, error) {
	items := [1]BatchItem{it}
	if _, err := s.run(ctx, items[:], false); err != nil {
		return nil, err
	}
	return items[0].Out, items[0].Err
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
	return s.one(ctx, BatchItem{Query: q, Dst: dst})
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
	return s.one(ctx, BatchItem{Expr: expr, Limit: n, Dst: dst})
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

// ExecBatchAppend answers the items sequentially on a single pooled
// reader — the arena-friendly fan-in entry point the serve package's
// micro-batcher dispatches through. Where ExecBatch spreads a batch
// across readers for parallelism, ExecBatchAppend deliberately shares
// one: every item reuses its scratch arenas and warm page cache, and
// answers append into the caller-owned Dst slices, so a steady-state
// batch of plain queries over a warm OIF store allocates nothing.
//
// Items that are one plain leaf with no limit run straight on the
// reader. The rest are planned together with common-subexpression
// elimination: plan subtrees whose canonical form repeats across the
// batch (a hot `subset` leg, a common filter conjunction) evaluate
// once and later occurrences reuse the cached answer; ExprStats
// reports the hits, misses and saved leaves. Over a sharded index each
// planned item fans out to the shards individually — the cache applies
// to single-engine stores.
//
// Per-item results land in items[i].Out / items[i].Err; a failed item
// does not disturb its batchmates. The returned count is how many items
// were processed: len(items) unless ctx is cancelled mid-batch, in
// which case processing stops, the remaining items carry no answer, and
// ctx's error is returned. A non-nil item Ctx additionally scopes that
// item alone — it reaches the reader's interrupt hook, so even an item
// mid-way through a long list scan stops promptly with its ctx's error.
func (s *Store) ExecBatchAppend(ctx context.Context, items []BatchItem) (int, error) {
	return s.run(ctx, items, true)
}
