package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/setcontain"
)

// ErrSaturated reports that the batcher's admission bound
// (Config.MaxPending queued queries) is reached; the server maps it to
// HTTP 429. Callers should shed or retry with backoff rather than
// block.
var ErrSaturated = errors.New("serve: query queue saturated")

// ErrClosed reports a query submitted to a closed batcher.
var ErrClosed = errors.New("serve: batcher closed")

// Config tunes the serving layer. The zero value selects the documented
// defaults.
type Config struct {
	// MaxBatch caps the queries coalesced into one dispatch through
	// Store.ExecBatchAppend (default 64).
	MaxBatch int
	// MaxPending bounds queued-but-undispatched queries; beyond it
	// DoExprLimit fails fast with ErrSaturated (default 4×MaxBatch).
	MaxPending int
	// Dispatchers is the number of concurrent batch executors, each
	// driving one pooled Store reader at a time (default GOMAXPROCS).
	// Fewer dispatchers under load mean larger batches.
	Dispatchers int
	// ChunkIDs caps the ids carried by one NDJSON response line
	// (default 4096); smaller chunks flush sooner.
	ChunkIDs int
	// Durable, when set, routes the /admin mutation endpoints through
	// the write-ahead-logged mutation path: a mutation is acknowledged
	// only once its log record is durable per the WAL's fsync policy,
	// POST /admin/checkpoint becomes available, and /stats and /healthz
	// report the WAL's state. The store handed to NewServer must be
	// Durable.Store(). Nil serves the plain in-memory mutation path.
	Durable *setcontain.Durable
}

// filled returns the config with unset fields replaced by their
// documented defaults.
func (c Config) filled() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 4 * c.MaxBatch
	}
	if c.Dispatchers <= 0 {
		c.Dispatchers = runtime.GOMAXPROCS(0)
	}
	if c.ChunkIDs <= 0 {
		c.ChunkIDs = 4096
	}
	return c
}

// waiter carries one request through the batcher: the submitter fills
// item, the dispatcher copies it into its arena and publishes the
// answered item (Out/Err set) back before signalling done. Waiters
// recycle through a sync.Pool, so the warm path submits and completes
// queries without allocating.
type waiter struct {
	item setcontain.BatchItem
	done chan struct{} // capacity 1; recycled with the waiter
}

// Batcher coalesces concurrent queries into micro-batches dispatched
// through Store.ExecBatchAppend. Create one with NewBatcher; submit with
// DoExprLimit; stop with Close. All methods are safe for concurrent use.
type Batcher struct {
	store *setcontain.Store
	cfg   Config

	reqCh   chan *waiter
	waiters sync.Pool
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	closed  atomic.Bool

	queries  atomic.Int64
	batches  atomic.Int64
	rejected atomic.Int64
	canceled atomic.Int64
	hist     []atomic.Int64 // hist[i] counts dispatches of size i+1
}

// NewBatcher starts cfg.Dispatchers dispatcher goroutines over store.
// Close releases them.
func NewBatcher(store *setcontain.Store, cfg Config) *Batcher {
	cfg = cfg.filled()
	b := &Batcher{
		store: store,
		cfg:   cfg,
		reqCh: make(chan *waiter, cfg.MaxPending),
		hist:  make([]atomic.Int64, cfg.MaxBatch),
	}
	b.ctx, b.cancel = context.WithCancel(context.Background())
	b.wg.Add(cfg.Dispatchers)
	for i := 0; i < cfg.Dispatchers; i++ {
		go b.run()
	}
	return b
}

// Close stops the dispatchers, failing any still-queued queries with
// ErrClosed, and waits for them to exit. Queries submitted after Close
// fail with ErrClosed.
func (b *Batcher) Close() {
	b.closed.Store(true)
	b.cancel()
	b.wg.Wait()
}

// DoExprLimit submits one boolean expression — a plain query is
// setcontain.ExprOf(q) — and blocks until its batch executes or ctx
// ends. The answer is appended to dst and the extended slice returned,
// as by Store.ExecExprLimitAppend (limit 0 means no limit, negative
// returns setcontain.ErrNegativeLimit) — but the execution is shared:
// the request rides whatever micro-batch the dispatchers form around it,
// and Store.ExecBatchAppend evaluates subtrees shared across the batch
// once (the cross-query subexpression cache).
//
// Ownership of dst transfers to the batcher for the duration of the
// call, and the returned slice tells the caller whether it came back:
// a non-nil return (every normal completion, including query errors —
// the untouched dst is handed back then) supersedes dst and is the
// caller's again; a nil return means the call gave up waiting (ctx
// ended, or the batcher closed) while a dispatcher may still be writing
// into dst — the buffer is forfeited and must not be reused.
func (b *Batcher) DoExprLimit(ctx context.Context, dst []uint32, e *setcontain.Expr, limit int) ([]uint32, error) {
	if limit < 0 {
		return dst, setcontain.ErrNegativeLimit
	}
	if e == nil {
		// A BatchItem without an Expr means "answer Query".
		return dst, errors.New("serve: nil expression")
	}
	if err := ctx.Err(); err != nil {
		return dst, err
	}
	if b.closed.Load() {
		return dst, ErrClosed
	}
	w, _ := b.waiters.Get().(*waiter)
	if w == nil {
		w = &waiter{done: make(chan struct{}, 1)}
	}
	w.item = setcontain.BatchItem{Ctx: ctx, Expr: e, Limit: limit, Dst: dst}
	select {
	case b.reqCh <- w:
	default:
		w.item = setcontain.BatchItem{}
		b.waiters.Put(w)
		b.rejected.Add(1)
		return dst, ErrSaturated
	}
	select {
	case <-w.done:
		out, err := w.item.Out, w.item.Err
		if out == nil {
			// Failed item: the dispatcher never extended dst, so hand
			// the caller's buffer back with the error.
			out = dst
		}
		w.item = setcontain.BatchItem{}
		b.waiters.Put(w)
		return out, err
	case <-ctx.Done():
		// The dispatcher still owns w (it will signal the buffered done
		// channel into the void); the waiter and dst are forfeited.
		b.canceled.Add(1)
		return nil, ctx.Err()
	case <-b.ctx.Done():
		// Close raced an admitted query: a dispatcher may still be
		// executing it against dst — forfeited, like the ctx path.
		return nil, ErrClosed
	}
}

// run is one dispatcher: collect a batch, execute it, publish results.
func (b *Batcher) run() {
	defer b.wg.Done()
	batch := make([]*waiter, 0, b.cfg.MaxBatch)
	items := make([]setcontain.BatchItem, b.cfg.MaxBatch)
	for {
		select {
		case <-b.ctx.Done():
			b.drain()
			return
		case w := <-b.reqCh:
			batch = append(batch, w)
		}
		batch = b.fill(batch)
		b.exec(batch, items)
		batch = batch[:0]
	}
}

// fill gathers the queries already queued into batch and never waits
// for one: a batch is what piled up while the dispatchers were busy, so
// batching follows load and an idle batcher answers a lone query at
// once. A short batch yields the processor once and looks again — when
// the CPUs rather than the dispatchers are the bottleneck, that is what
// lets already-runnable submitters enqueue.
func (b *Batcher) fill(batch []*waiter) []*waiter {
	batch = b.takeQueued(batch)
	if len(batch) < b.cfg.MaxBatch {
		runtime.Gosched()
		batch = b.takeQueued(batch)
	}
	return batch
}

// takeQueued moves queued queries into batch, up to MaxBatch, without
// blocking.
func (b *Batcher) takeQueued(batch []*waiter) []*waiter {
	for len(batch) < b.cfg.MaxBatch {
		select {
		case w := <-b.reqCh:
			batch = append(batch, w)
		default:
			return batch
		}
	}
	return batch
}

// exec dispatches the batch through Store.ExecBatchAppend — one call,
// one warm reader, subtrees shared across the batch evaluated once —
// and publishes each waiter's result. items is the dispatcher's
// reusable arena.
func (b *Batcher) exec(batch []*waiter, items []setcontain.BatchItem) {
	n := len(batch)
	if n == 0 {
		return
	}
	for i, w := range batch {
		items[i] = w.item
	}
	processed, err := b.store.ExecBatchAppend(b.ctx, items[:n])
	if err != nil && b.closed.Load() {
		err = ErrClosed
	}
	// Count before publishing: once a call returns, Stats shows its batch.
	b.queries.Add(int64(n))
	b.batches.Add(1)
	b.hist[n-1].Add(1)
	for i, w := range batch {
		if i < processed {
			w.item = items[i]
		} else {
			w.item.Err = err
		}
		items[i] = setcontain.BatchItem{} // drop buffer references
		select {
		case w.done <- struct{}{}:
		default:
		}
	}
}

// drain fails every still-queued query with ErrClosed after Close.
func (b *Batcher) drain() {
	for {
		select {
		case w := <-b.reqCh:
			w.item.Err = ErrClosed
			select {
			case w.done <- struct{}{}:
			default:
			}
		default:
			return
		}
	}
}

// BatcherStats is a snapshot of the batcher's dispatch behaviour; the
// batch-size histogram is how a load test verifies coalescing actually
// engages (a mean above 1 once clients outnumber free dispatchers).
type BatcherStats struct {
	// Queries is the total queries dispatched (admitted and executed).
	Queries int64
	// Batches is the total dispatches; Queries/Batches is the mean
	// batch size, also available as MeanBatch.
	Batches int64
	// Rejected counts queries refused at admission with ErrSaturated.
	Rejected int64
	// Canceled counts calls abandoned by their caller's context
	// while queued or executing.
	Canceled int64
	// Pending is the queries queued awaiting dispatch at snapshot time
	// (a gauge; admission refuses beyond Config.MaxPending).
	Pending int
	// BatchSizes is the dispatch histogram: BatchSizes[i] batches
	// carried exactly i+1 queries.
	BatchSizes []int64
}

// MeanBatch returns the mean queries per dispatch, 0 before the first.
func (s BatcherStats) MeanBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Queries) / float64(s.Batches)
}

// Stats returns a consistent-enough snapshot of the counters (each
// counter is read atomically; the set is not a single atomic cut).
func (b *Batcher) Stats() BatcherStats {
	st := BatcherStats{
		Queries:    b.queries.Load(),
		Batches:    b.batches.Load(),
		Rejected:   b.rejected.Load(),
		Canceled:   b.canceled.Load(),
		Pending:    len(b.reqCh),
		BatchSizes: make([]int64, len(b.hist)),
	}
	for i := range b.hist {
		st.BatchSizes[i] = b.hist[i].Load()
	}
	return st
}
