package experiments

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"repro/internal/dataset"
	"repro/internal/workload"
	"repro/setcontain"
	"repro/setcontain/serve"
)

// ShardingPoint is one measured shard count: how long the parallel
// build took and what query throughput the Store sustained.
type ShardingPoint struct {
	Shards    int
	BuildTime time.Duration
	Elapsed   time.Duration
	QPS       float64
	// Plans records the skew-aware planner's per-shard decision.
	Plans []setcontain.ShardPlan
}

// ShardingResult is the shard-count sweep over one dataset.
type ShardingResult struct {
	Queries   int
	Workers   int
	Transport string
	Points    []ShardingPoint
}

// RunSharding sweeps the Sharded engine's shard count (1, 2, 4, ... up
// to maxShards) over the default synthetic dataset — the ROADMAP's
// scale-out scenario. For each point it times the parallel shard build,
// then replays a mixed workload through Store.Exec from `workers`
// goroutines and reports aggregate throughput; the per-shard planning
// decisions (inner engine kind, fitted skew) are printed alongside.
// Gains track the machine: on one core the sweep degenerates to
// overhead measurement, on N cores both build time and QPS scale.
//
// transport selects how the coordinator reaches its shards: "engine"
// (or "") queries the sharded engine directly, "inproc" routes through
// the ShardClient layer with in-process clients, and "http" serves
// every shard from its own HTTP daemon and fans out to them as an HTTP
// client of their public API — the cost ladder of the transport
// abstraction.
func RunSharding(cfg Config, maxShards, workers int, transport string) (ShardingResult, error) {
	cfg.fill()
	if maxShards <= 0 {
		maxShards = 8
	}
	if workers <= 0 {
		workers = 8
	}
	switch transport {
	case "":
		transport = "engine"
	case "engine", "inproc", "http":
	default:
		return ShardingResult{}, fmt.Errorf("experiments: unknown transport %q (engine, inproc, or http)", transport)
	}
	d, err := dataset.GenerateSynthetic(cfg.SyntheticDefaults())
	if err != nil {
		return ShardingResult{}, err
	}

	gen := workload.NewGenerator(d, cfg.Seed+2000)
	queries, err := MixedQueries(gen, 4, cfg.QueriesPerSize)
	if err != nil {
		return ShardingResult{}, err
	}
	if len(queries) == 0 {
		return ShardingResult{}, fmt.Errorf("experiments: no queries at scale %g", cfg.Scale)
	}
	const rounds = 20
	total := len(queries) * rounds

	res := ShardingResult{Queries: total, Workers: workers, Transport: transport}
	w := cfg.Out
	fmt.Fprintf(w, "=== Sharded engine sweep (|D|=%d, %d queries/point, %d workers, transport %s) ===\n",
		d.Len(), total, workers, transport)
	for shards := 1; shards <= maxShards; shards *= 2 {
		// Keep the aggregate cache budget constant across points: each
		// shard gets PoolPages/shards pages, so throughput differences
		// reflect the sharding mechanism rather than cache growth. Block
		// postings are deliberately NOT passed — sizing the OIF frontier
		// from each shard's hottest list is the planner decision this
		// sweep exists to exercise.
		perShardCache := cfg.PoolPages / shards
		if perShardCache < 1 {
			perShardCache = 1
		}
		buildStart := time.Now()
		idx, err := setcontain.New(setcontain.WrapDataset(d),
			setcontain.WithKind(setcontain.Sharded),
			setcontain.WithShards(shards),
			setcontain.WithBuildParallelism(shards),
			setcontain.WithPageSize(cfg.PageSize),
			setcontain.WithCachePages(perShardCache),
		)
		if err != nil {
			return ShardingResult{}, fmt.Errorf("experiments: build %d shards: %w", shards, err)
		}
		buildTime := time.Since(buildStart)

		store, cleanup, err := shardingStore(idx, transport, perShardCache)
		if err != nil {
			return ShardingResult{}, fmt.Errorf("experiments: %s transport over %d shards: %w", transport, shards, err)
		}
		elapsed, err := runStoreWorkers(store, queries, rounds, workers)
		cleanup()
		if err != nil {
			return ShardingResult{}, err
		}
		pt := ShardingPoint{
			Shards:    shards,
			BuildTime: buildTime,
			Elapsed:   elapsed,
			QPS:       float64(total) / elapsed.Seconds(),
			Plans:     setcontain.ShardPlans(idx.Engine()),
		}
		res.Points = append(res.Points, pt)
		fmt.Fprintf(w, "shards=%2d  build=%-10s  query=%-12s  %10.0f queries/s  inner=%s\n",
			pt.Shards, pt.BuildTime.Round(time.Millisecond),
			pt.Elapsed.Round(time.Microsecond), pt.QPS, summarisePlans(pt.Plans))
	}
	return res, nil
}

// shardingStore wraps the freshly built sharded index for the requested
// transport and returns the Store queries should run through, plus a
// cleanup tearing down whatever the transport stood up. "engine" serves
// the index as-is; "inproc" and "http" rebuild the coordinator over
// ShardClients aliasing the same shard engines, so every transport
// answers from identical data.
func shardingStore(idx *setcontain.Index, transport string, cachePages int) (*setcontain.Store, func(), error) {
	if transport == "engine" {
		return setcontain.NewStore(idx, cachePages), func() {}, nil
	}
	engines := setcontain.ShardEngines(idx.Engine())
	clients := make([]setcontain.ShardClient, len(engines))
	var downs []func()
	cleanup := func() {
		for i := len(downs) - 1; i >= 0; i-- {
			downs[i]()
		}
	}
	for i, eng := range engines {
		switch transport {
		case "inproc":
			clients[i] = setcontain.InprocShard(eng)
		case "http":
			sidx := setcontain.IndexOver(eng)
			sv := serve.NewServer(sidx, setcontain.NewStore(sidx, cachePages), serve.Config{})
			ts := httptest.NewServer(sv.Handler())
			clients[i] = setcontain.NewRemoteShard(ts.URL, nil)
			downs = append(downs, ts.Close, sv.Close)
		}
	}
	cidx, err := setcontain.ShardedOverClients(context.Background(), clients)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	return setcontain.NewStore(cidx, cachePages), cleanup, nil
}

// summarisePlans compresses per-shard decisions into e.g. "OIF x4" or
// "OIF x3 + IF x1".
func summarisePlans(plans []setcontain.ShardPlan) string {
	counts := map[setcontain.Kind]int{}
	for _, p := range plans {
		counts[p.Kind]++
	}
	out := ""
	for _, k := range setcontain.Kinds() {
		if n := counts[k]; n > 0 {
			if out != "" {
				out += " + "
			}
			out += fmt.Sprintf("%s x%d", k, n)
		}
	}
	if out == "" {
		out = "none"
	}
	return out
}
