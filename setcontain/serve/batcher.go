package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
	"repro/setcontain"
)

// ErrSaturated reports that the batcher's admission bound
// (Config.MaxPending queries waiting for a slot) is reached; the server
// maps it to HTTP 429. Callers should shed or retry with backoff rather
// than block.
var ErrSaturated = errors.New("serve: query queue saturated")

// ErrClosed reports a query submitted to, or waiting in, a closed
// batcher.
var ErrClosed = errors.New("serve: batcher closed")

// Config tunes the serving layer. The zero value selects the documented
// defaults.
type Config struct {
	// MaxPending bounds the queries waiting for an execution slot;
	// beyond it DoExprLimit fails fast with ErrSaturated (default 256).
	MaxPending int
	// Dispatchers is the number of queries executing at once, each on
	// its caller's goroutine with one pooled Store reader (default
	// GOMAXPROCS).
	Dispatchers int
	// ChunkIDs caps the ids carried by one NDJSON response line
	// (default 4096); smaller chunks flush sooner. It is clamped to
	// wire.MaxResultIDs, so every line fits the line cap a coordinator
	// reads its shards' answers under.
	ChunkIDs int
	// Durable, when set, is the served index's Durable: it adds POST
	// /admin/checkpoint and the WAL sections of /stats and /healthz.
	// Mutations are logged whenever a Durable has adopted the index,
	// set here or not.
	Durable *setcontain.Durable
}

// filled returns the config with unset fields replaced by their
// documented defaults and ChunkIDs clamped.
func (c Config) filled() Config {
	if c.MaxPending <= 0 {
		c.MaxPending = 256
	}
	if c.Dispatchers <= 0 {
		c.Dispatchers = runtime.GOMAXPROCS(0)
	}
	if c.ChunkIDs <= 0 {
		c.ChunkIDs = 4096
	}
	c.ChunkIDs = min(c.ChunkIDs, wire.MaxResultIDs)
	return c
}

// Batcher is the serving layer's admission bound: a counting semaphore
// in front of the Store. Each query executes on its caller's own
// goroutine with one pooled Store reader; at most Config.Dispatchers
// execute at once, at most Config.MaxPending more wait for a slot, and
// any beyond that are refused with ErrSaturated. No work is shared
// across queries; the name is historical. Create one with NewBatcher;
// submit with DoExprLimit; stop with Close. All methods are safe for
// concurrent use.
type Batcher struct {
	store      *setcontain.Store
	slots      chan struct{} // one token per executing query
	maxPending int64
	closed     chan struct{}
	closeOnce  sync.Once

	queries  atomic.Int64
	rejected atomic.Int64
	canceled atomic.Int64
	pending  atomic.Int64
}

// NewBatcher returns a batcher admitting queries to store under cfg's
// bounds.
func NewBatcher(store *setcontain.Store, cfg Config) *Batcher {
	cfg = cfg.filled()
	return &Batcher{
		store:      store,
		slots:      make(chan struct{}, cfg.Dispatchers),
		maxPending: int64(cfg.MaxPending),
		closed:     make(chan struct{}),
	}
}

// Close stops admission: calls waiting for a slot and every later call
// fail with ErrClosed. Close returns at once; a call already executing
// finishes under its own ctx. It is safe to call more than once.
func (b *Batcher) Close() {
	b.closeOnce.Do(func() { close(b.closed) })
}

// DoExprLimit answers one boolean expression — a plain query is
// setcontain.ExprOf(q) — through Store.ExecExprLimitAppend on the
// caller's goroutine, once an execution slot is free. The answer is
// appended to dst and the extended slice returned (limit 0 means no
// limit, negative returns setcontain.ErrNegativeLimit). On an error dst
// itself comes back, so the returned slice always supersedes dst.
//
// A call that finds every slot busy waits for one, unless
// Config.MaxPending calls already wait: then it fails at once with
// ErrSaturated. A waiting call gives up with ctx.Err() when ctx ends
// and with ErrClosed when the batcher closes; an executing call stops
// between list-block reads when ctx ends.
func (b *Batcher) DoExprLimit(ctx context.Context, dst []uint32, e *setcontain.Expr, limit int) ([]uint32, error) {
	if err := ctx.Err(); err != nil {
		return dst, err
	}
	if err := b.admit(ctx); err != nil {
		return dst, err
	}
	out, err := b.store.ExecExprLimitAppend(ctx, dst, e, limit)
	<-b.slots
	// Count before returning: once a call returns, Stats shows it.
	b.queries.Add(1)
	if err != nil {
		if ctx.Err() != nil {
			b.canceled.Add(1)
		}
		return dst, err
	}
	return out, nil
}

// admit takes an execution slot, waiting for one only while fewer than
// MaxPending other calls wait.
func (b *Batcher) admit(ctx context.Context) error {
	select {
	case <-b.closed:
		return ErrClosed
	default:
	}
	select {
	case b.slots <- struct{}{}:
		return nil
	default:
	}
	if b.pending.Add(1) > b.maxPending {
		b.pending.Add(-1)
		b.rejected.Add(1)
		return ErrSaturated
	}
	defer b.pending.Add(-1)
	select {
	case b.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		b.canceled.Add(1)
		return ctx.Err()
	case <-b.closed:
		return ErrClosed
	}
}

// BatcherStats is a snapshot of the batcher's admission counters.
type BatcherStats struct {
	// Queries is the total queries admitted and executed.
	Queries int64
	// Batches equals Queries: every query executes on its own.
	//
	// Deprecated: kept only because the frozen benchmark harness reads
	// it.
	Batches int64
	// Rejected counts queries refused at admission with ErrSaturated.
	Rejected int64
	// Canceled counts calls whose context ended while they waited for a
	// slot or executed.
	Canceled int64
	// Pending is the queries waiting for an execution slot at snapshot
	// time (a gauge; admission refuses beyond Config.MaxPending).
	Pending int
}

// Stats returns a consistent-enough snapshot of the counters (each
// counter is read atomically; the set is not a single atomic cut).
func (b *Batcher) Stats() BatcherStats {
	q := b.queries.Load()
	return BatcherStats{
		Queries:  q,
		Batches:  q,
		Rejected: b.rejected.Load(),
		Canceled: b.canceled.Load(),
		Pending:  int(b.pending.Load()),
	}
}
