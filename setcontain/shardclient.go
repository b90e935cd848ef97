package setcontain

import (
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/storage"
)

// The shard-client layer is the transport seam of the sharded engine:
// a coordinator talks to its shards only through ShardClient (control
// plane) and ShardSession (data plane), so the same scatter-gather
// executor drives local engines and remote daemons interchangeably.
// InprocShard wraps a local Engine; NewRemoteShard (remote.go) is an
// ordinary HTTP client of a setcontain/serve daemon's public API.
// ShardedOverClients assembles the client-backed shards into
// an ordinary sharded Index, so Store, serve, and snapshots work over
// remote shards unchanged.

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
// identity, mutations, planner supports, snapshots, and data-plane
// session creation. Implementations must be safe for concurrent use;
// methods taking a ctx honour its cancellation.
type ShardClient interface {
	// Info describes the shard's current state.
	Info(ctx context.Context) (ShardInfo, error)
	// Session opens an isolated data-plane query session (the client
	// analogue of Engine.NewReader); cachePages sizes any local cache
	// the transport keeps (<= 0 selects the default; remote transports
	// may ignore it).
	Session(cachePages int) (ShardSession, error)
	// ItemSupports fetches the shard's per-item support table for the
	// coordinator's expression planner.
	ItemSupports(ctx context.Context) ([]int64, error)
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
// one per shard), answering in ascending shard-local ids.
type ShardSession interface {
	// AppendQuery answers one containment query, appending local ids
	// to dst.
	AppendQuery(ctx context.Context, dst []uint32, q Query) ([]uint32, error)
	// AppendExpr answers a whole boolean expression, planned against
	// the shard's own supports, appending at most limit local ids to
	// dst (limit 0 = unlimited).
	AppendExpr(ctx context.Context, dst []uint32, expr *Expr, limit int) ([]uint32, error)
	// SetInterrupt installs fn as the session's cancellation check,
	// consulted during evaluation; nil clears it. fn must tolerate
	// concurrent calls.
	SetInterrupt(fn func() error)
	// Stats reports the session's I/O behaviour where the transport
	// can observe it (zero otherwise).
	Stats() CacheStats
	// ResetStats zeroes the session's statistics.
	ResetStats()
	// Close releases the session.
	Close() error
}

// exprAppender is the reader-level capability behind whole-expression
// pushdown: shard readers that implement it (client-backed readers)
// receive the original expression instead of the coordinator's plan.
type exprAppender interface {
	AppendExpr(ctx context.Context, dst []uint32, expr *Expr, limit int) ([]uint32, error)
}

// --- In-process client ---------------------------------------------------

// InprocShard wraps a local Engine as a ShardClient — the in-process
// transport. It is the reference implementation remote transports are
// held byte-identical to, and what `-transport inproc` benchmarks to
// isolate the client-layer overhead from the network's.
func InprocShard(eng Engine) ShardClient { return &inprocClient{eng: eng} }

type inprocClient struct {
	eng Engine

	mu   sync.Mutex
	prof *SupportProfile // session planning profile, dropped on mutation
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

func (c *inprocClient) ItemSupports(context.Context) ([]int64, error) {
	return c.eng.ItemSupports(), nil
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
// core as Store (BatchItem.prepare/exec): pushed-down expressions are
// planned locally against the client's cached supports, exactly like a
// remote shard daemon plans against its own. The coordinator's
// SetInterrupt hook, not ctx, interrupts a running evaluation.
type inprocSession struct {
	c    *inprocClient
	r    *Reader
	eval Evaluator
}

func (s *inprocSession) AppendQuery(ctx context.Context, dst []uint32, q Query) ([]uint32, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.r.EvalAppend(dst, q)
}

func (s *inprocSession) AppendExpr(ctx context.Context, dst []uint32, expr *Expr, limit int) ([]uint32, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if expr == nil {
		return nil, errNilExpr
	}
	it := BatchItem{Expr: expr, Limit: limit, Dst: dst}
	it.prepare(s.c)
	if it.Err != nil {
		return nil, it.Err
	}
	ids, _, err := it.exec(ctx, s.r, &s.eval, nil)
	return ids, err
}

func (s *inprocSession) SetInterrupt(fn func() error) { s.r.setInterrupt(fn) }
func (s *inprocSession) Stats() CacheStats            { return s.r.CacheStats() }
func (s *inprocSession) ResetStats()                  { s.r.ResetCacheStats() }
func (s *inprocSession) Close() error                 { return nil }

// --- Client-backed Engine adapter ----------------------------------------

// ShardedOverClients assembles a sharded Index whose shards are reached
// through the given clients (in shard order, matching the partition the
// shards hold). Every client's Info is fetched under ctx to validate
// the set: the shards' vocabularies must agree. The resulting Index
// behaves exactly like a locally sharded one — Store, serve, and
// snapshots work unchanged — with each shard call going through its
// client's transport.
func ShardedOverClients(ctx context.Context, clients []ShardClient) (*Index, error) {
	if len(clients) == 0 {
		return nil, fmt.Errorf("setcontain: sharded index needs at least one shard client")
	}
	engines := make([]Engine, len(clients))
	domain := -1
	for i, c := range clients {
		info, err := c.Info(ctx)
		if err != nil {
			return nil, fmt.Errorf("setcontain: shard %d: %w", i, err)
		}
		if domain < 0 {
			domain = info.Domain
		} else if info.Domain != domain {
			return nil, fmt.Errorf("setcontain: shard %d domain %d != shard 0 domain %d",
				i, info.Domain, domain)
		}
		ce := &clientEngine{c: c, info: info}
		ce.predicates = ce.query
		engines[i] = ce
	}
	eng, err := shardedOf(engines)
	if err != nil {
		return nil, err
	}
	return IndexOver(eng), nil
}

// errClientPool reports that a client-backed shard has no local buffer
// pool to re-point.
var errClientPool = fmt.Errorf("setcontain: client-backed shard has no local buffer pool")

// clientEngine adapts a ShardClient to the Engine interface, which is
// what lets the sharded engine, Store, serve, and the snapshot writer
// drive remote shards through their existing code paths. Record
// counters come from the cached ShardInfo, maintained locally across
// mutations (and refreshed from the shard on MergeDelta) to avoid a
// roundtrip per accessor.
type clientEngine struct {
	predicates // Subset/Equality/Superset over query

	c    ShardClient
	info ShardInfo

	mu   sync.Mutex
	sess ShardSession // lazy engine-level session for direct Queryable calls
}

func (e *clientEngine) Kind() Kind      { return e.info.Kind }
func (e *clientEngine) NumRecords() int { return e.info.Records }
func (e *clientEngine) DomainSize() int { return e.info.Domain }

// session returns the engine-level data-plane session, opening it on
// first use. Engine values are single-goroutine by contract, but the
// sharded fan-out calls sibling shards concurrently — each clientEngine
// still sees at most one call at a time, which is the session contract.
func (e *clientEngine) session() (ShardSession, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.sess == nil {
		sess, err := e.c.Session(0)
		if err != nil {
			return nil, err
		}
		e.sess = sess
	}
	return e.sess, nil
}

// dropSession retires the engine-level session after a mutation: a
// session may answer from the snapshot it opened on (the in-process one
// does), and Engine promises the next query sees the mutation.
func (e *clientEngine) dropSession() {
	e.mu.Lock()
	sess := e.sess
	e.sess = nil
	e.mu.Unlock()
	if sess != nil {
		sess.Close() // best effort: the replacement opens on next use
	}
}

// query answers q on the engine-level session, appending to dst.
func (e *clientEngine) query(dst []uint32, q Query) ([]uint32, error) {
	sess, err := e.session()
	if err != nil {
		return nil, err
	}
	return sess.AppendQuery(context.Background(), dst, q)
}

func (e *clientEngine) Insert(set []Item) (uint32, error) {
	id, err := e.c.Insert(context.Background(), set)
	if err != nil {
		return 0, err
	}
	e.info.Records++
	e.info.Pending++
	e.dropSession()
	return id, nil
}

func (e *clientEngine) Delete(local uint32) error {
	if err := e.c.Delete(context.Background(), local); err != nil {
		return err
	}
	e.info.Deleted++
	e.dropSession()
	return nil
}

func (e *clientEngine) Deleted() int { return e.info.Deleted }

func (e *clientEngine) MergeDelta() error {
	if err := e.c.MergeDelta(context.Background()); err != nil {
		return err
	}
	// The merge changed the shard's physical state wholesale; re-sync
	// the cached counters from the source instead of guessing.
	info, err := e.c.Info(context.Background())
	if err != nil {
		return err
	}
	e.info = info
	e.dropSession()
	return nil
}

func (e *clientEngine) PendingInserts() int { return e.info.Pending }

func (e *clientEngine) NewReader(cachePages int) (*Reader, error) {
	sess, err := e.c.Session(cachePages)
	if err != nil {
		return nil, err
	}
	answer := func(dst []uint32, q Query) ([]uint32, error) {
		return sess.AppendQuery(context.Background(), dst, q)
	}
	return &Reader{r: &clientReader{answer, sess}}, nil
}

func (e *clientEngine) Save(w io.Writer) error { return e.c.Snapshot(context.Background(), w) }

// ItemSupports fetches the shard's support table; a transport failure
// degrades to a zero table (uniform planner costs), never to a wrong
// answer — Engine's signature has no error to raise.
func (e *clientEngine) ItemSupports() []int64 {
	sup, err := e.c.ItemSupports(context.Background())
	if err != nil || len(sup) != e.info.Domain {
		return make([]int64, e.info.Domain)
	}
	return sup
}

func (e *clientEngine) Space() SpaceInfo { return SpaceInfo{} }

func (e *clientEngine) Stats() CacheStats {
	e.mu.Lock()
	sess := e.sess
	e.mu.Unlock()
	if sess == nil {
		return CacheStats{}
	}
	return sess.Stats()
}

func (e *clientEngine) ResetStats() {
	e.mu.Lock()
	sess := e.sess
	e.mu.Unlock()
	if sess != nil {
		sess.ResetStats()
	}
}

func (e *clientEngine) SetPool(*storage.BufferPool) error { return errClientPool }
func (e *clientEngine) Pool() *storage.BufferPool         { return nil }

// Unwrap returns the underlying ShardClient.
func (e *clientEngine) Unwrap() any { return e.c }

// clientReader is the engineReader behind a client-backed shard's
// Reader: every call crosses the client's transport on its session. It
// propagates interrupts to the session (there is no local pool to hook)
// and accepts whole-expression pushdown.
type clientReader struct {
	predicates // Subset/Equality/Superset, straight onto sess.AppendQuery

	sess ShardSession
}

// AppendSubset implements AppendQueryable on the same primitive;
// likewise AppendEquality and AppendSuperset.
func (r *clientReader) AppendSubset(dst []uint32, qs []Item) ([]uint32, error) {
	return r.predicates(dst, SubsetQuery(qs))
}

func (r *clientReader) AppendEquality(dst []uint32, qs []Item) ([]uint32, error) {
	return r.predicates(dst, EqualityQuery(qs))
}

func (r *clientReader) AppendSuperset(dst []uint32, qs []Item) ([]uint32, error) {
	return r.predicates(dst, SupersetQuery(qs))
}

// AppendExpr implements the exprAppender pushdown capability.
func (r *clientReader) AppendExpr(ctx context.Context, dst []uint32, expr *Expr, limit int) ([]uint32, error) {
	return r.sess.AppendExpr(ctx, dst, expr, limit)
}

func (r *clientReader) Stats() storage.AccessStats {
	s := r.sess.Stats()
	return storage.AccessStats{
		Hits:       s.Hits,
		Misses:     s.PageReads,
		SeqMisses:  s.Sequential,
		NearMisses: s.Near,
		RandMisses: s.Random,
	}
}

func (r *clientReader) ResetStats() { r.sess.ResetStats() }

// Pool returns nil: the pages live on the shard's side of the
// transport. Interrupts go through setInterrupt instead.
func (r *clientReader) Pool() *storage.BufferPool { return nil }

// setInterrupt implements interruptPropagator on the session.
func (r *clientReader) setInterrupt(fn func() error) { r.sess.SetInterrupt(fn) }
