package setcontain

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/storage"
)

// The sharded engine partitions records across N inner engines and
// answers every query by fanning it out to all shards in parallel,
// merging the per-shard streams back into one ascending global-id
// sequence. The id arithmetic lives in the engine's Partitioner
// (round-robin by default: shard = (g-1) mod N, local = (g-1)/N + 1),
// and the fan-out/merge in the scatter-gather executor (scatter.go) —
// this file only wires the two to the Engine surface. Because the
// partitioner maps each shard's ascending local answer to an ascending
// global subsequence, the merge is a pure k-way interleave, which is
// what makes sharded answers byte-identical to the single-engine ones.
//
// Each shard's inner engine is chosen per shard by internal/stats while
// the records stream in: skewed shards get the paper's Ordered Inverted
// File (with a frontier block size fitted to the shard's hottest list),
// uniform shards the plain inverted file. The shard count therefore also
// decides how much of the paper's skew machinery is deployed — the skew
// insight becomes a planning decision instead of a manual flag.

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
	predicates // Subset/Equality/Superset: gatherOver the shards

	shards []Engine
	part   Partitioner
	plans  []ShardPlan
	domain int

	// nextID is the partition counter: the highest global id handed out
	// so far (tombstoned slots included). Insert routes by it and
	// advances it only on success — a failed shard insert must leave
	// the global-id ↔ shard mapping exactly where it was, or every
	// later record would land on the wrong shard.
	nextID uint32
}

// errShardedPool reports that the sharded engine has no single buffer
// pool to re-point; meter its shards individually via Unwrap.
var errShardedPool = errors.New("setcontain: sharded engine has per-shard buffer pools; meter shards via Unwrap")

// buildShardedEngine splits the dataset across opts.Shards sub-datasets
// through the round-robin Partitioner, profiles each shard's
// item-frequency skew during the split, and builds every shard's
// planner-chosen engine in parallel (bounded by opts.BuildParallelism
// goroutines).
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
	par := opts.BuildParallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > n {
		par = n
	}

	// Split through the partitioner, profiling each shard as its
	// records stream in. The dataset hands out ids 1..Len in order, so
	// record i carries global id i+1.
	subs := make([]*dataset.Dataset, n)
	colls := make([]*stats.Collector, n)
	for s := range subs {
		subs[s] = dataset.New(ds.DomainSize())
		colls[s] = stats.NewCollector(ds.DomainSize())
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
		colls[s].Add(r.Set)
	}

	shards := make([]Engine, n)
	plans := make([]ShardPlan, n)
	errs := forEachBounded(n, par, func(s int) error {
		shardEng, plan, err := buildShard(subs[s], colls[s], opts)
		if err != nil {
			return err
		}
		plan.Shard = s
		shards[s] = shardEng
		plans[s] = plan
		return nil
	})
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("setcontain: shard %d: %w", s, err)
		}
	}
	return newShardedEngine(part, shards, plans, ds.DomainSize()), nil
}

// buildShard plans and builds one shard's inner engine from its profiled
// distribution. The planner's frontier size replaces the OIF block cap
// only when the caller left it unset — an explicit WithBlockPostings
// always wins, even at the default value.
func buildShard(sub *dataset.Dataset, coll *stats.Collector, opts Options) (Engine, ShardPlan, error) {
	profile := coll.Profile(8)
	plan := profile.Plan()
	sp := ShardPlan{Records: sub.Len(), Theta: plan.Theta}

	inner := opts
	inner.Shards = 0
	build := buildInvEngine
	inner.Kind = InvertedFile
	if plan.UseOIF {
		build = buildOIFEngine
		inner.Kind = OIF
		if !inner.blockPostingsExplicit && plan.BlockPostings > 0 {
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

// shardedOf rewraps already-built inner engines (EngineOf's []Engine
// case). The engines must hold a round-robin partition in shard order,
// as produced by a sharded build.
func shardedOf(shards []Engine) (Engine, error) {
	if len(shards) == 0 {
		return nil, errors.New("setcontain: sharded engine needs at least one shard")
	}
	return shardedWith(NewRoundRobinPartitioner(len(shards)), shards)
}

// shardedWith rewraps inner engines under an explicit Partitioner; the
// engines must hold that partitioner's split in shard order.
func shardedWith(part Partitioner, shards []Engine) (Engine, error) {
	if part.NumShards() != len(shards) {
		return nil, fmt.Errorf("setcontain: partitioner expects %d shards, got %d",
			part.NumShards(), len(shards))
	}
	plans := make([]ShardPlan, len(shards))
	for s, sh := range shards {
		plans[s] = ShardPlan{Shard: s, Kind: sh.Kind(), Records: sh.NumRecords()}
	}
	return newShardedEngine(part, shards, plans, shards[0].DomainSize()), nil
}

// newShardedEngine assembles the engine over shards holding part's
// split in shard order; the partition counter resumes after the records
// they already hold.
func newShardedEngine(part Partitioner, shards []Engine, plans []ShardPlan, domain int) *shardedEngine {
	e := &shardedEngine{predicates: gatherOver(part, shards), shards: shards, part: part, plans: plans, domain: domain}
	e.nextID = uint32(e.NumRecords())
	return e
}

// ShardPlans returns the per-shard planning decisions of a sharded
// engine (or index over one), and nil for any other engine.
func ShardPlans(e Engine) []ShardPlan {
	se, ok := e.(*shardedEngine)
	if !ok {
		return nil
	}
	return append([]ShardPlan(nil), se.plans...)
}

// ShardEngines returns a sharded engine's inner engines in shard order,
// and nil for any other engine. The engines are shared, not copied —
// wrapping them (e.g. in InprocShard clients for a transport
// experiment) aliases the original's state.
func ShardEngines(e Engine) []Engine {
	se, ok := e.(*shardedEngine)
	if !ok {
		return nil
	}
	return append([]Engine(nil), se.shards...)
}

func (e *shardedEngine) Kind() Kind      { return Sharded }
func (e *shardedEngine) DomainSize() int { return e.domain }

func (e *shardedEngine) NumRecords() int {
	total := 0
	for _, sh := range e.shards {
		total += sh.NumRecords()
	}
	return total
}

// Unwrap returns the inner engines in shard order; EngineOf accepts the
// slice back.
func (e *shardedEngine) Unwrap() any { return append([]Engine(nil), e.shards...) }

// ItemSupports sums the shards' support tables: the partition splits
// records, not items, so the global support of an item is the sum of
// its per-shard supports.
func (e *shardedEngine) ItemSupports() []int64 {
	supports := make([]int64, e.domain)
	for _, sh := range e.shards {
		for it, n := range sh.ItemSupports() {
			supports[it] += n
		}
	}
	return supports
}

// gatherOver is the one (dst, Query) primitive behind the sharded
// engine's and the sharded reader's predicates: q scattered over the
// shard handles and merged to global order. There is no cancellation
// signal at this level — Store readers carry that through the interrupt
// hooks setInterrupt installs — so the Queryable surface stays
// context-free.
func gatherOver[T Queryable](part Partitioner, shards []T) predicates {
	return func(dst []uint32, q Query) ([]uint32, error) {
		ids, err := scatterGather(context.Background(), part,
			func(_ context.Context, s int) ([]uint32, error) { return q.Eval(shards[s]) })
		if err != nil || dst == nil {
			return ids, err
		}
		return append(dst, ids...), nil
	}
}

// Insert routes the record to the shard the partitioner assigns its
// global id, so the id mapping stays exact across updates. The
// partition counter advances only after the shard accepted the record:
// an error leaves the mapping untouched, so the next Insert retries the
// same global id on the same shard.
func (e *shardedEngine) Insert(set []Item) (uint32, error) {
	global := e.nextID + 1
	s, want := e.part.Locate(global)
	local, err := e.shards[s].Insert(set)
	if err != nil {
		return 0, err
	}
	if local != want {
		return 0, fmt.Errorf("setcontain: shard %d id drift: local %d maps to %d, want %d",
			s, local, e.part.GlobalOf(s, local), global)
	}
	e.nextID = global
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
	return e.shards[s].Delete(local)
}

// Deleted sums the shards' tombstone counts.
func (e *shardedEngine) Deleted() int {
	total := 0
	for _, sh := range e.shards {
		total += sh.Deleted()
	}
	return total
}

// MergeDelta folds every shard's pending inserts and tombstones in
// parallel.
func (e *shardedEngine) MergeDelta() error {
	return errors.Join(forEachBounded(len(e.shards), 0, func(s int) error {
		return e.shards[s].MergeDelta()
	})...)
}

func (e *shardedEngine) PendingInserts() int {
	total := 0
	for _, sh := range e.shards {
		total += sh.PendingInserts()
	}
	return total
}

// NewReader creates one reader per shard, each with its own cache of
// cachePages pages (the budget is per shard: every shard fans out its
// own list walks). The combined reader answers like the engine —
// parallel fan-out, global-order merge — and propagates interrupts to
// every shard pool, which is how Store cancellation reaches all shards.
func (e *shardedEngine) NewReader(cachePages int) (*Reader, error) {
	readers := make([]*Reader, len(e.shards))
	for s, sh := range e.shards {
		r, err := sh.NewReader(cachePages)
		if err != nil {
			return nil, err
		}
		readers[s] = r
	}
	return &Reader{r: &shardedReader{predicates: gatherOver(e.part, readers), shards: readers, part: e.part}}, nil
}

func (e *shardedEngine) Space() SpaceInfo {
	var total SpaceInfo
	for _, sh := range e.shards {
		s := sh.Space()
		total.Pages += s.Pages
		total.Bytes += s.Bytes
	}
	return total
}

func (e *shardedEngine) Stats() CacheStats {
	var total CacheStats
	for _, sh := range e.shards {
		s := sh.Stats()
		total.Hits += s.Hits
		total.PageReads += s.PageReads
		total.Sequential += s.Sequential
		total.Near += s.Near
		total.Random += s.Random
	}
	return total
}

func (e *shardedEngine) ResetStats() {
	for _, sh := range e.shards {
		sh.ResetStats()
	}
}

// DecodedStats sums the decoded-block cache statistics of the shards
// whose inner engines keep one (the planner's OIF shards).
func (e *shardedEngine) DecodedStats() DecodedCacheStats {
	var total DecodedCacheStats
	for _, sh := range e.shards {
		if ds, ok := sh.(decodedStatser); ok {
			total = total.add(ds.DecodedStats())
		}
	}
	return total
}

func (e *shardedEngine) SetPool(*storage.BufferPool) error { return errShardedPool }

// Pool returns the first shard's pool so pool-shape probes (page size,
// pager identity) keep working; metering must go per shard. Remote
// shards have no local pool — the probe then reports nil.
func (e *shardedEngine) Pool() *storage.BufferPool { return e.shards[0].Pool() }

// shardedReader is the engineReader behind a sharded Reader: isolated
// per-shard readers queried with the same scatter-gather as the engine.
type shardedReader struct {
	predicates // Subset/Equality/Superset: gatherOver the shard readers

	shards []*Reader
	part   Partitioner
}

func (r *shardedReader) Stats() storage.AccessStats {
	var total storage.AccessStats
	for _, sh := range r.shards {
		s := sh.r.Stats()
		total.Hits += s.Hits
		total.Misses += s.Misses
		total.SeqMisses += s.SeqMisses
		total.NearMisses += s.NearMisses
		total.RandMisses += s.RandMisses
	}
	return total
}

func (r *shardedReader) ResetStats() {
	for _, sh := range r.shards {
		sh.ResetCacheStats()
	}
}

// DecodedStats sums the shard readers' decoded-block cache statistics.
func (r *shardedReader) DecodedStats() DecodedCacheStats {
	var total DecodedCacheStats
	for _, sh := range r.shards {
		total = total.add(sh.DecodedCacheStats())
	}
	return total
}

// Pool returns the first shard reader's pool (see shardedEngine.Pool);
// interrupts go through setInterrupt, which reaches every shard.
func (r *shardedReader) Pool() *storage.BufferPool { return r.shards[0].r.Pool() }

// setInterrupt installs the cancellation hook on every shard's pool, so
// a context cancelled mid-query stops all shard fan-outs at their next
// block read. The hook must be safe for concurrent calls — the shards
// consult it in parallel.
func (r *shardedReader) setInterrupt(fn func() error) {
	for _, sh := range r.shards {
		sh.setInterrupt(fn)
	}
}
