package setcontain

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"repro/internal/dataset"
	"repro/internal/fanout"
	"repro/internal/stats"
	"repro/internal/storage"
)

// The sharded engine partitions records across N shards and answers
// every query by fanning it out to all of them in parallel, merging the
// per-shard streams back into one ascending global-id sequence. It
// reaches a shard only through its ShardClient and ShardSessions
// (shardclient.go) — InprocShard around a local engine when the index
// was built or restored here, an HTTP client of a daemon for a
// coordinator — so there is one fan-out, whatever the transport. The id
// arithmetic lives in the engine's Partitioner (round-robin by default:
// shard = (g-1) mod N, local = (g-1)/N + 1), and the fan-out/merge in
// the scatter-gather executor (scatter.go) — this file only wires the
// two to the Engine surface. Because the partitioner maps each shard's
// ascending local answer to an ascending global subsequence, the merge
// is a pure k-way interleave, which is what makes sharded answers
// byte-identical to the single-engine ones.
//
// Each built shard's inner engine is chosen per shard by internal/stats
// from the item supports of the records split to it: skewed shards get
// the paper's Ordered Inverted File (with a frontier block size fitted
// to the shard's hottest list), uniform shards the plain inverted file.
// The shard count therefore also decides how much of the paper's skew
// machinery is deployed — the skew insight becomes a planning decision
// instead of a manual flag.

// ShardPlan records the planning decision made for one shard at build
// time; ShardPlans exposes them for inspection and experiment reports.
type ShardPlan struct {
	// Shard is the shard's position in [0, NumShards).
	Shard int
	// Kind is the inner engine the planner chose.
	Kind Kind
	// Records is the number of records routed to the shard.
	Records int
	// Theta is the Zipf exponent fitted to the shard's item frequencies.
	Theta float64
	// BlockPostings is the OIF frontier size chosen (0 for non-OIF).
	BlockPostings int
}

type shardedEngine struct {
	predicates // Subset/Equality/Superset: query, on the engine-level reader

	clients []ShardClient
	// infos caches every shard's ShardInfo, maintained locally across
	// mutations (and re-fetched from the shard on MergeDelta) so the
	// record accessors cost no roundtrip.
	infos  []ShardInfo
	part   Partitioner
	plans  []ShardPlan
	domain int

	// nextID is the partition counter: the highest global id handed out
	// so far (tombstoned slots included). Insert routes by it and
	// advances it only on success — a failed shard insert must leave
	// the global-id ↔ shard mapping exactly where it was, or every
	// later record would land on the wrong shard.
	nextID uint32

	// rd answers the engine's own predicate calls: one session per
	// shard, opened by the first query and dropped by every mutation — a
	// session may answer from the snapshot it opened on (the in-process
	// one does), and Engine promises the next query sees the mutation.
	// Never nil: an unopened reader has no sessions and zero statistics.
	rd *shardedReader
}

// errShardedPool reports that the sharded engine has no single buffer
// pool to re-point; meter its shards individually via ShardEngines.
var errShardedPool = errors.New("setcontain: sharded engine has per-shard buffer pools; meter shards via ShardEngines")

// buildShardedEngine splits the dataset across opts.Shards sub-datasets
// through the round-robin Partitioner, profiles each shard's
// item-frequency skew from its supports, and builds every shard's
// planner-chosen engine in parallel (on at most GOMAXPROCS goroutines).
func buildShardedEngine(ds *dataset.Dataset, opts Options) (Engine, error) {
	n := opts.Shards
	if n <= 0 {
		n = defaultShards()
	}
	return buildShardedWith(ds, opts, NewRoundRobinPartitioner(n))
}

// buildShardedWith is buildShardedEngine under an explicit Partitioner:
// the one place the partition scheme touches the build path. Tests
// swap alternative schemes in here.
func buildShardedWith(ds *dataset.Dataset, opts Options, part Partitioner) (Engine, error) {
	n := part.NumShards()

	// Split through the partitioner. The dataset hands out ids 1..Len
	// in order, so record i carries global id i+1.
	subs := make([]*dataset.Dataset, n)
	for s := range subs {
		subs[s] = dataset.New(ds.DomainSize())
	}
	for i, r := range ds.Records() {
		s, local := part.Locate(uint32(i) + 1)
		id, err := subs[s].Add(r.Set)
		if err != nil {
			return nil, fmt.Errorf("setcontain: shard %d: %w", s, err)
		}
		if id != local {
			return nil, fmt.Errorf("setcontain: shard %d: partitioner routed global %d to local %d, shard assigned %d",
				s, i+1, local, id)
		}
	}

	clients := make([]ShardClient, n)
	plans := make([]ShardPlan, n)
	errs := fanout.ForEach(n, 0, func(s int) error {
		shardEng, plan, err := buildShard(subs[s], opts)
		if err != nil {
			return err
		}
		plan.Shard = s
		clients[s] = InprocShard(shardEng)
		plans[s] = plan
		return nil
	})
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("setcontain: shard %d: %w", s, err)
		}
	}
	e, err := assembleSharded(context.Background(), part, clients, plans)
	if err != nil {
		return nil, err
	}
	return e, nil
}

// buildShard plans and builds one shard's inner engine from the item
// supports of its records. The planner's frontier size replaces the OIF
// block cap only when the caller left it unset — an explicit
// WithBlockPostings always wins, even at the backend's default value.
func buildShard(sub *dataset.Dataset, opts Options) (Engine, ShardPlan, error) {
	plan := stats.ProfileOfSupports(sub.Support()).Plan()
	sp := ShardPlan{Records: sub.Len(), Theta: plan.Theta}

	inner := opts
	inner.Shards = 0
	build := buildInvEngine
	inner.Kind = InvertedFile
	if plan.UseOIF {
		build = buildOIFEngine
		inner.Kind = OIF
		if inner.BlockPostings <= 0 {
			inner.BlockPostings = plan.BlockPostings
		}
		sp.BlockPostings = inner.BlockPostings
	}
	sp.Kind = inner.Kind
	eng, err := build(sub, inner)
	if err != nil {
		return nil, ShardPlan{}, err
	}
	return eng, sp, nil
}

// defaultShards is the shard count when WithShards is absent: one per
// available CPU, but at least two so the sharded paths are exercised
// even on a single-core box.
func defaultShards() int {
	n := runtime.GOMAXPROCS(0)
	if n < 2 {
		n = 2
	}
	return n
}

// assembleSharded is the one constructor behind every sharded engine —
// built (buildShardedWith), restored (loadShardedPayload) or connected
// (ShardedOverClients) — over clients holding part's split in shard
// order; nil plans are derived from what the shards report. Every
// client's Info is fetched under ctx to validate the set: the
// vocabularies must agree, and the record counts (tombstoned slots
// included — they are never compacted) must be a round-robin deal in
// shard order, non-increasing and within one of shard 0's. Shards
// restored from another snapshot, or listed in the wrong order, would
// otherwise open, map local ids to the wrong global ids silently, and
// fail the next Insert with id drift after the shard kept the record.
// The partition counter resumes after the records the shards hold.
func assembleSharded(ctx context.Context, part Partitioner, clients []ShardClient, plans []ShardPlan) (*shardedEngine, error) {
	infos := make([]ShardInfo, len(clients))
	total := 0
	for s, c := range clients {
		info, err := c.Info(ctx)
		if err != nil {
			return nil, fmt.Errorf("setcontain: shard %d: %w", s, err)
		}
		infos[s] = info
		total += info.Records
		if s == 0 {
			continue
		}
		if info.Domain != infos[0].Domain {
			return nil, fmt.Errorf("setcontain: shard %d domain %d != shard 0 domain %d",
				s, info.Domain, infos[0].Domain)
		}
		ref := -1 // the shard whose count this one contradicts
		if info.Records > infos[s-1].Records {
			ref = s - 1
		} else if info.Records < infos[0].Records-1 {
			ref = 0
		}
		if ref >= 0 {
			return nil, &ShardError{Shard: s, Err: fmt.Errorf(
				"holds %d records beside shard %d's %d: not a round-robin split in shard order",
				info.Records, ref, infos[ref].Records)}
		}
	}
	if plans == nil {
		plans = make([]ShardPlan, len(clients))
		for s, info := range infos {
			plans[s] = ShardPlan{Shard: s, Kind: info.Kind, Records: info.Records}
		}
	}
	e := &shardedEngine{clients: clients, infos: infos, part: part, plans: plans,
		domain: infos[0].Domain, nextID: uint32(total), rd: &shardedReader{}}
	e.predicates = e.query
	return e, nil
}

// ShardPlans returns the per-shard planning decisions of a sharded
// index, and nil for any other index.
func (ix *Index) ShardPlans() []ShardPlan {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	se, ok := ix.eng.(*shardedEngine)
	if !ok {
		return nil
	}
	return append([]ShardPlan(nil), se.plans...)
}

// ShardEngines returns the inner engines of a sharded engine's
// in-process shards in shard order (remote shards have none to give),
// and nil for any other engine. The engines are shared, not copied —
// wrapping them (e.g. in InprocShard clients for a transport
// experiment) aliases the original's state.
func ShardEngines(e Engine) []Engine {
	se, ok := e.(*shardedEngine)
	if !ok {
		return nil
	}
	var engines []Engine
	for _, c := range se.clients {
		if eng := localEngine(c); eng != nil {
			engines = append(engines, eng)
		}
	}
	return engines
}

func (e *shardedEngine) Kind() Kind      { return Sharded }
func (e *shardedEngine) DomainSize() int { return e.domain }

func (e *shardedEngine) NumRecords() int {
	total := 0
	for _, info := range e.infos {
		total += info.Records
	}
	return total
}

// Unwrap returns the shard clients in shard order.
func (e *shardedEngine) Unwrap() any { return append([]ShardClient(nil), e.clients...) }

// ItemSupports sums the in-process shards' support tables: the partition
// splits records, not items, so the global support of an item is the sum
// of its per-shard supports. A remote shard's table stays on its side of
// the transport, where the shard plans with it, and counts zero here —
// the rule Space and Pool follow. Only the planning profiles
// (Index.Supports, Store.Supports) read this; no query path does.
func (e *shardedEngine) ItemSupports() []int64 {
	supports := make([]int64, e.domain)
	for _, c := range e.clients {
		if eng := localEngine(c); eng != nil {
			for it, n := range eng.ItemSupports() {
				supports[it] += n
			}
		}
	}
	return supports
}

// openReader opens one session per shard, each with its own cache of
// cachePages pages where the transport keeps one (the budget is per
// shard: every shard fans out its own list walks). Its predicates
// scatter the query as a one-leaf expression; there is no cancellation
// signal at this level — a Store scatters with its ctx — so the
// Queryable surface stays context-free.
func (e *shardedEngine) openReader(cachePages int) (*shardedReader, error) {
	r := &shardedReader{sess: make([]ShardSession, 0, len(e.clients)), part: e.part}
	r.predicates = func(q Query) ([]uint32, error) {
		ids, _, err := r.scatterExpr(context.Background(), ExprOf(q), 0)
		return ids, err
	}
	for s, c := range e.clients {
		sess, err := c.Session(cachePages)
		if err != nil {
			r.close()
			return nil, &ShardError{Shard: s, Err: err}
		}
		r.sess = append(r.sess, sess)
	}
	return r, nil
}

// reader returns the engine-level reader, opened on first use.
func (e *shardedEngine) reader() (*shardedReader, error) {
	if e.rd.sess == nil {
		rd, err := e.openReader(0)
		if err != nil {
			return nil, err
		}
		e.rd = rd
	}
	return e.rd, nil
}

// query answers q on the engine-level reader.
func (e *shardedEngine) query(q Query) ([]uint32, error) {
	rd, err := e.reader()
	if err != nil {
		return nil, err
	}
	return rd.predicates(q)
}

// dropReader retires the engine-level reader after a mutation; its
// sessions reopen on the next query.
func (e *shardedEngine) dropReader() { e.rd.close() }

// Insert routes the record to the shard the partitioner assigns its
// global id, so the id mapping stays exact across updates. The
// partition counter advances only after the shard accepted the record:
// an error leaves the mapping untouched, so the next Insert retries the
// same global id on the same shard.
func (e *shardedEngine) Insert(set []Item) (uint32, error) {
	global := e.nextID + 1
	s, want := e.part.Locate(global)
	local, err := e.clients[s].Insert(context.Background(), set)
	if err != nil {
		return 0, err
	}
	e.dropReader()
	if local != want {
		return 0, fmt.Errorf("setcontain: shard %d id drift: local %d maps to %d, want %d",
			s, local, e.part.GlobalOf(s, local), global)
	}
	e.nextID = global
	e.infos[s].Records++
	e.infos[s].Pending++
	e.plans[s].Records++
	return global, nil
}

// Delete routes the tombstone to the shard owning the global id via the
// partitioner's inverse mapping; the masked id never surfaces from any
// shard's stream again.
func (e *shardedEngine) Delete(id uint32) error {
	if id == 0 || id > e.nextID {
		return fmt.Errorf("setcontain: delete of unknown record %d (have %d)", id, e.nextID)
	}
	s, local := e.part.Locate(id)
	if err := e.clients[s].Delete(context.Background(), local); err != nil {
		return err
	}
	e.dropReader()
	e.infos[s].Deleted++
	return nil
}

// Deleted sums the shards' tombstone counts.
func (e *shardedEngine) Deleted() int {
	total := 0
	for _, info := range e.infos {
		total += info.Deleted
	}
	return total
}

// MergeDelta folds every shard's pending inserts and tombstones in
// parallel. The merge changes a shard's physical state wholesale, so
// its cached counters are re-fetched from the source instead of guessed.
func (e *shardedEngine) MergeDelta() error {
	e.dropReader()
	ctx := context.Background()
	return errors.Join(fanout.ForEach(len(e.clients), 0, func(s int) error {
		if err := e.clients[s].MergeDelta(ctx); err != nil {
			return err
		}
		info, err := e.clients[s].Info(ctx)
		if err != nil {
			return err
		}
		e.infos[s] = info
		return nil
	})...)
}

func (e *shardedEngine) PendingInserts() int {
	total := 0
	for _, info := range e.infos {
		total += info.Pending
	}
	return total
}

// NewReader opens one session per shard (see openReader). The combined
// reader answers like the engine — parallel fan-out, global-order
// merge; a Store cancels it through the ctx of each scatter.
func (e *shardedEngine) NewReader(cachePages int) (*Reader, error) {
	r, err := e.openReader(cachePages)
	if err != nil {
		return nil, err
	}
	return &Reader{r: r}, nil
}

// Space sums the footprints of the in-process shards; a remote shard's
// pages live on its own side of the transport and count zero here.
func (e *shardedEngine) Space() SpaceInfo {
	var total SpaceInfo
	for _, c := range e.clients {
		if eng := localEngine(c); eng != nil {
			s := eng.Space()
			total.Pages += s.Pages
			total.Bytes += s.Bytes
		}
	}
	return total
}

// Stats reports the I/O behaviour of the engine-level reader — the
// caches the engine's own predicate calls ran on since the last
// mutation retired its predecessor.
func (e *shardedEngine) Stats() CacheStats { return cacheStatsOf(e.rd.Stats()) }
func (e *shardedEngine) ResetStats()       { e.rd.ResetStats() }

func (e *shardedEngine) SetPool(*storage.BufferPool) error { return errShardedPool }

// Pool returns the first shard's pool so pool-shape probes (page size,
// pager identity) keep working; metering must go per shard. A remote
// shard has no local pool — the probe then reports nil.
func (e *shardedEngine) Pool() *storage.BufferPool {
	if eng := localEngine(e.clients[0]); eng != nil {
		return eng.Pool()
	}
	return nil
}

// shardedReader is the engineReader behind a sharded Reader: one
// isolated session per shard, queried with the scatter-gather executor.
type shardedReader struct {
	predicates // Subset/Equality/Superset: a one-leaf scatterExpr

	sess []ShardSession
	part Partitioner
}

// scatterExpr is the sharded engine's one fan-out: it validates the
// expression and pushes it whole to every shard's session, which plans
// it against its own supports, then merges the local answers to global
// id order. A containment query travels as its one-leaf expression. The boolean algebra distributes
// over the partition: the shards hold disjoint record sets, so each
// shard's local answer (its NOT universe included) is exactly the
// global answer restricted to that shard. A limit n > 0 is pushed per
// shard — the partitioner maps each shard's ascending local answer to
// an ascending global subsequence, so the global first n ids are always
// contained in the union of the shards' local first n — then the merged
// answer is truncated. The stats sum the leaf counters of the sessions
// that can report them (in-process ones).
func (r *shardedReader) scatterExpr(ctx context.Context, expr *Expr, limit int) ([]uint32, ExprEvalStats, error) {
	var st ExprEvalStats
	if err := expr.validate(); err != nil {
		return nil, st, err
	}
	ids, err := scatterGather(ctx, r.part, func(cctx context.Context, s int) ([]uint32, error) {
		return r.sess[s].AppendExpr(cctx, nil, expr, limit)
	})
	if err != nil {
		return nil, st, err
	}
	for _, sess := range r.sess {
		if is, ok := sess.(*inprocSession); ok {
			st.EvaluatedLeaves += is.last.EvaluatedLeaves
			st.StreamedLeaves += is.last.StreamedLeaves
			st.SkippedLeaves += is.last.SkippedLeaves
		}
	}
	if limit > 0 && len(ids) > limit {
		ids = ids[:limit]
	}
	return ids, st, nil
}

func (r *shardedReader) Stats() storage.AccessStats {
	var total storage.AccessStats
	for _, sess := range r.sess {
		s := sess.Stats()
		total.Hits += s.Hits
		total.Misses += s.PageReads
		total.SeqMisses += s.Sequential
		total.NearMisses += s.Near
		total.RandMisses += s.Random
	}
	return total
}

func (r *shardedReader) ResetStats() {
	for _, sess := range r.sess {
		sess.ResetStats()
	}
}

// Pool returns nil: the pages live behind the sessions, which stop on
// the ctx of the call in progress.
func (r *shardedReader) Pool() *storage.BufferPool { return nil }

// close releases the sessions, best effort: nothing outlives them.
func (r *shardedReader) close() {
	for _, sess := range r.sess {
		sess.Close()
	}
	r.sess = nil
}
