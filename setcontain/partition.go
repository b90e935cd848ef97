package setcontain

// The partition layer owns the one fact everything sharded depends on:
// which shard holds a global record id, and how that id translates to
// the shard's local id space. Build splits, query merges, insert
// routing, delete routing, and snapshot manifests all consult the same
// Partitioner value, so changing the partition scheme is a one-file
// change instead of a hunt through the engine.
//
// A Partitioner must be a bijection between global ids and
// (shard, local) pairs, and must preserve order within a shard:
// ascending locals on one shard map to ascending globals. That
// monotonicity is what keeps the scatter-gather merge a pure k-way
// interleave and sharded answers byte-identical to single-engine ones.

// Partitioner maps between the global record-id space and per-shard
// local id spaces. Implementations must be pure (no state mutated by
// the mapping calls) and safe for concurrent use; the scatter-gather
// executor consults them from every shard's goroutine.
type Partitioner interface {
	// NumShards returns the shard count N; shards are numbered [0, N).
	NumShards() int
	// Locate returns the shard owning global id g and g's local id on
	// that shard. Ids are 1-based in both spaces.
	Locate(global uint32) (shard int, local uint32)
	// GlobalOf inverts Locate: the global id of shard s's local id l.
	GlobalOf(shard int, local uint32) uint32
}

// roundRobin is the Partitioner sharded builds use: global id g lives on
// shard (g-1) mod N. Local ids are dense per shard and new ids rotate
// across shards, so shard sizes stay within one record of each other
// regardless of insert order.
type roundRobin struct {
	n uint32
}

// NewRoundRobinPartitioner returns the round-robin Partitioner over n
// shards (n must be >= 1): global id g lives on shard (g-1) mod n as
// local id (g-1)/n + 1.
func NewRoundRobinPartitioner(n int) Partitioner {
	if n < 1 {
		panic("setcontain: round-robin partitioner needs at least one shard")
	}
	return roundRobin{n: uint32(n)}
}

func (p roundRobin) NumShards() int { return int(p.n) }

func (p roundRobin) Locate(global uint32) (int, uint32) {
	return int((global - 1) % p.n), (global-1)/p.n + 1
}

func (p roundRobin) GlobalOf(shard int, local uint32) uint32 {
	return (local-1)*p.n + uint32(shard) + 1
}
