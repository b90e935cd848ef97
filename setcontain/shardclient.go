package setcontain

import (
	"context"
	"fmt"
	"io"
	"sync"
)

// The shard-client layer is the transport seam of the sharded engine:
// it talks to its shards only through ShardClient (control plane) and
// ShardSession (data plane), so the same scatter-gather executor drives
// local engines and remote daemons interchangeably. InprocShard wraps a
// local Engine — what New(WithKind(Sharded)) and Open hold their shards
// through; NewRemoteShard (remote.go) is an ordinary HTTP client of a
// setcontain/serve daemon's public API. ShardedOverClients assembles
// any set of clients into an ordinary sharded Index, so Store, serve,
// and snapshots work over remote shards unchanged.

// ShardInfo describes one shard: its engine kind, record counts, and
// vocabulary. Coordinators use it to validate a shard set (domains must
// agree) and to account records without per-call roundtrips.
type ShardInfo struct {
	// Kind is the shard's engine kind.
	Kind Kind
	// Records is the shard's record count, pending inserts included.
	Records int
	// Domain is the shard's vocabulary size.
	Domain int
	// Pending is the shard's unmerged insert count.
	Pending int
	// Deleted is the shard's tombstone count.
	Deleted int
}

// ShardClient is a coordinator's control-plane handle on one shard:
// identity, mutations, snapshots, and data-plane session creation. No
// planner state crosses it — a shard plans each request against its own
// supports. Implementations must be safe for concurrent use; methods
// taking a ctx honour its cancellation.
type ShardClient interface {
	// Info describes the shard's current state.
	Info(ctx context.Context) (ShardInfo, error)
	// Session opens an isolated data-plane query session (the client
	// analogue of Engine.NewReader); cachePages sizes any local cache
	// the transport keeps (<= 0 selects the default; remote transports
	// may ignore it).
	Session(cachePages int) (ShardSession, error)
	// Insert adds a record to the shard and returns its local id.
	Insert(ctx context.Context, set []Item) (uint32, error)
	// Delete tombstones the shard-local record id.
	Delete(ctx context.Context, local uint32) error
	// MergeDelta folds the shard's pending inserts and tombstones.
	MergeDelta(ctx context.Context) error
	// Snapshot streams the shard's self-describing snapshot container
	// into w.
	Snapshot(ctx context.Context, w io.Writer) error
	// Close releases the client's resources.
	Close() error
}

// ShardSession is a coordinator's data-plane handle on one shard: one
// in-flight call at a time (the scatter-gather executor issues at most
// one per shard), answering in ascending shard-local ids. The call's
// ctx is the one cancellation signal: when it ends mid-evaluation the
// call stops at the shard's next block read and returns an error,
// never a prefix of the answer.
type ShardSession interface {
	// AppendQuery answers one containment query, appending local ids
	// to dst.
	AppendQuery(ctx context.Context, dst []uint32, q Query) ([]uint32, error)
	// AppendExpr answers a whole boolean expression, planned against
	// the shard's own supports, appending at most limit local ids to
	// dst (limit 0 = unlimited).
	AppendExpr(ctx context.Context, dst []uint32, expr *Expr, limit int) ([]uint32, error)
	// Stats reports the session's I/O behaviour where the transport
	// can observe it (zero otherwise).
	Stats() CacheStats
	// ResetStats zeroes the session's statistics.
	ResetStats()
	// Close releases the session.
	Close() error
}

// --- In-process client ---------------------------------------------------

// InprocShard wraps a local Engine as a ShardClient — the in-process
// transport, and the reference implementation remote transports are
// held byte-identical to.
func InprocShard(eng Engine) ShardClient { return &inprocClient{eng: eng} }

type inprocClient struct {
	eng Engine

	mu   sync.Mutex
	prof *SupportProfile // session planning profile, dropped on mutation
}

// localEngine returns the engine behind an in-process client, or nil:
// the probe for what only a local shard can tell the sharded engine
// (its footprint, its buffer pool, the engine itself). A remote shard
// contributes zero.
func localEngine(c ShardClient) Engine {
	if ic, ok := c.(*inprocClient); ok {
		return ic.eng
	}
	return nil
}

func (c *inprocClient) Info(context.Context) (ShardInfo, error) {
	return ShardInfo{
		Kind:    c.eng.Kind(),
		Records: c.eng.NumRecords(),
		Domain:  c.eng.DomainSize(),
		Pending: c.eng.PendingInserts(),
		Deleted: c.eng.Deleted(),
	}, nil
}

func (c *inprocClient) Session(cachePages int) (ShardSession, error) {
	r, err := c.eng.NewReader(cachePages)
	if err != nil {
		return nil, err
	}
	return &inprocSession{c: c, r: r}, nil
}

// Supports returns the client's cached planning profile, recomputing it
// after a mutation dropped it. Sessions plan pushed-down expressions
// against it; staleness only skews cost estimates, never answers.
func (c *inprocClient) Supports() *SupportProfile {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.prof == nil {
		c.prof = SupportsOf(c.eng)
	}
	return c.prof
}

func (c *inprocClient) invalidate() {
	c.mu.Lock()
	c.prof = nil
	c.mu.Unlock()
}

func (c *inprocClient) Insert(_ context.Context, set []Item) (uint32, error) {
	id, err := c.eng.Insert(set)
	if err == nil {
		c.invalidate()
	}
	return id, err
}

func (c *inprocClient) Delete(_ context.Context, local uint32) error {
	err := c.eng.Delete(local)
	if err == nil {
		c.invalidate()
	}
	return err
}

func (c *inprocClient) MergeDelta(context.Context) error {
	err := c.eng.MergeDelta()
	if err == nil {
		c.invalidate()
	}
	return err
}

func (c *inprocClient) Snapshot(_ context.Context, w io.Writer) error { return c.eng.Save(w) }

func (c *inprocClient) Close() error { return nil }

// inprocSession answers on an isolated reader through the same request
// core as Store (request.planExec): pushed-down expressions are
// planned locally against the client's cached supports, exactly like a
// remote shard daemon plans against its own. For the duration of a call
// the reader's buffer pool consults the call's ctx before every page
// request, so a ctx that ends mid-scan — the caller's, or the scatter's
// when a sibling shard failed — stops the evaluation there.
type inprocSession struct {
	c    *inprocClient
	r    *Reader
	eval Evaluator
	// last is the leaf accounting of the latest AppendExpr, which a
	// sharded Store folds into ExprStats (see execSharded).
	last ExprEvalStats
}

func (s *inprocSession) AppendQuery(ctx context.Context, dst []uint32, q Query) ([]uint32, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.r.setInterrupt(ctx.Err)
	defer s.r.setInterrupt(nil)
	return s.r.EvalAppend(dst, q)
}

func (s *inprocSession) AppendExpr(ctx context.Context, dst []uint32, expr *Expr, limit int) ([]uint32, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if expr == nil {
		return nil, errNilExpr
	}
	s.r.setInterrupt(ctx.Err)
	defer s.r.setInterrupt(nil)
	rq := request{e: expr, limit: limit, dst: dst}
	ids, st, err := rq.planExec(s.r, s.c, &s.eval)
	s.last = st
	return ids, err
}

func (s *inprocSession) Stats() CacheStats { return s.r.CacheStats() }
func (s *inprocSession) ResetStats()       { s.r.ResetCacheStats() }
func (s *inprocSession) Close() error      { return nil }

// --- Assembly ------------------------------------------------------------

// ShardedOverClients assembles a sharded Index whose shards are reached
// through the given clients (in shard order, matching the round-robin
// partition the shards hold). Every client's Info is fetched under ctx
// to validate the set: the shards' vocabularies must agree and their
// record counts must be a round-robin split in shard order (see
// assembleSharded; a violation comes back as a ShardError naming the
// first offending shard). The resulting Index is the one a sharded
// build or Open returns — Store, serve, and snapshots work unchanged —
// with each shard call going through its client's transport.
func ShardedOverClients(ctx context.Context, clients []ShardClient) (*Index, error) {
	if len(clients) == 0 {
		return nil, fmt.Errorf("setcontain: sharded index needs at least one shard client")
	}
	eng, err := assembleSharded(ctx, NewRoundRobinPartitioner(len(clients)), clients, nil)
	if err != nil {
		return nil, err
	}
	return IndexOver(eng), nil
}
