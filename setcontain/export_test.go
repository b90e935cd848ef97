package setcontain

// WrapShardClients replaces every shard client of a sharded index with
// wrap's decoration of it — the external tests' way of injecting faults
// into an index that New or Open assembled, whose clients are otherwise
// out of reach.
func WrapShardClients(ix *Index, wrap func(shard int, c ShardClient) ShardClient) {
	e := ix.eng.(*shardedEngine)
	e.dropReader()
	for s, c := range e.clients {
		e.clients[s] = wrap(s, c)
	}
}

// AllKinds lists the engine kinds in declaration order, for the tests
// that build one index of each.
var AllKinds = []Kind{OIF, InvertedFile, UnorderedBTree, Sharded}

// The tests build indexes from a plain Options and wrap engines they
// assembled themselves; the exported API reaches both only through New.
var (
	Build      = buildIndex
	NewOptions = newOptions
	IndexOver  = indexOver
)
