// Command setcontaind serves set-containment queries over HTTP: it
// indexes a dataset (a file in the text or msweb formats, or a
// generated skewed synthetic collection), wraps the index in a
// concurrency-safe Store, and answers remote clients through the
// serve package: each query executes on its request's own goroutine, at
// most -dispatchers at once, with at most -maxpending more waiting for
// a slot; beyond that a query is refused with 429.
//
// Usage:
//
//	setcontaind -synthetic 100000 -index sharded -shards 4
//	setcontaind -data sets.txt -addr :8080
//	setcontaind -msweb anonymous-msweb.data -replicas 10
//	setcontaind -snapshot idx.snap
//
// With -snapshot the daemon boots from a snapshot container (written by
// POST /admin/snapshot, oifquery -save, or setcontain.Index.Save)
// instead of rebuilding from a raw dataset — the restart path for a
// warm production daemon.
//
// With -wal-dir the daemon is durable: every /admin/insert and
// /admin/delete is written to a write-ahead log in that directory and
// acknowledged only once durable per -fsync (always, interval, or os),
// and on restart the daemon restores the newest checkpoint snapshot and
// replays the log tail — an acknowledged write survives kill -9 and
// power loss (under -fsync always). The dataset/-snapshot flags seed
// the directory on first boot and are ignored afterwards; a checkpoint
// folds the log into a fresh snapshot automatically every
// -checkpoint-bytes of log, or on POST /admin/checkpoint.
//
//	setcontaind -synthetic 100000 -wal-dir /var/lib/setcontain -fsync always
//
// The daemon also runs distributed. A shard daemon holds one slice of a
// round-robin partition; a coordinator is a router: it validates each
// request, forwards it to every shard daemon as an ordinary client of
// their public API — /healthz, POST /query, /admin/* and nothing else;
// each shard plans the request against its own supports — and merges
// their answers:
//
//	setcontaind -addr :8081 -synthetic 100000 -shard-of 0 -shard-count 2 -index oif
//	setcontaind -addr :8082 -synthetic 100000 -shard-of 1 -shard-count 2 -index oif
//	setcontaind -addr :8080 -coordinator http://localhost:8081,http://localhost:8082
//
// Every shard daemon must load the same dataset flags (or its own split
// snapshot); -shard-of keeps only the records the round-robin scheme
// routes to that shard. -split-snapshot decomposes a coordinator (or
// any sharded) snapshot into per-shard snapshot files that shard
// daemons boot from directly:
//
//	setcontaind -snapshot idx.snap -split-snapshot shards/
//	setcontaind -addr :8081 -snapshot shards/shard-000.snap
//
// Endpoints: POST /query (batch, NDJSON answers), GET /query?q=…,
// GET /stream?q=… (the same, flushed per chunk), GET /stats,
// GET /healthz, and the mutation surface
// POST /admin/{insert,delete,merge,snapshot,checkpoint}. Try it:
//
//	curl -sg 'localhost:8080/query?q=subset{3+17}'
//	curl -s -d '{"queries":[{"pred":"superset","items":[1,2,3]}]}' localhost:8080/query
//	curl -s -X POST localhost:8080/admin/snapshot -o idx.snap
//
// With -debug-addr the daemon serves net/http/pprof on a second
// listener (never on -addr), so a daemon under load can be profiled:
//
//	setcontaind -synthetic 100000 -debug-addr 127.0.0.1:6060
//	go tool pprof -top 'http://127.0.0.1:6060/debug/pprof/profile?seconds=10'
//
// The serving path is measured by the repository benchmark, which
// stands up its own daemon over loopback:
// `bash benchmark/run.sh --workload http_single`.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/setcontain"
	"repro/setcontain/serve"
)

// Slow or idle connections cost bounded resources: a client gets
// readHeaderTimeout to send its request headers and an idle keep-alive
// connection is closed after idleTimeout. There is deliberately no
// whole-request read or write timeout — snapshots and long answers
// stream legitimately.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		debugAddr = flag.String("debug-addr", "", "listen address of the debug listener serving /debug/pprof/ (empty = off); keep it off public interfaces")

		snapshot = flag.String("snapshot", "", "boot from this snapshot container instead of building from a dataset")

		shardOf     = flag.Int("shard-of", -1, "serve only this shard of a -shard-count way round-robin partition of the dataset")
		shardCount  = flag.Int("shard-count", 0, "total shards in the partition this daemon is one slice of (with -shard-of)")
		coordinator = flag.String("coordinator", "", "comma-separated shard daemon base URLs to coordinate instead of holding data locally")
		splitSnap   = flag.String("split-snapshot", "", "split the -snapshot sharded container into per-shard snapshots in this directory, then exit")

		data      = flag.String("data", "", "dataset file in the text format (one record per line)")
		msweb     = flag.String("msweb", "", "dataset file in the UCI msweb format")
		replicas  = flag.Int("replicas", 1, "msweb session replication factor (the paper uses 10)")
		synthetic = flag.Int("synthetic", 100000, "records of skewed synthetic data when no -data/-msweb is given")
		domain    = flag.Int("domain", 2000, "synthetic vocabulary size")
		zipf      = flag.Float64("zipf", 0.8, "synthetic Zipf exponent (the paper's default skew)")
		seed      = flag.Int64("seed", 1, "synthetic generator seed")

		index     = flag.String("index", "sharded", "index kind: oif, if, ubt, or sharded")
		shards    = flag.Int("shards", 0, "sharded partition count (0 = one per CPU, minimum 2)")
		pageSize  = flag.Int("pagesize", 0, "index page size in bytes (0 = 4096)")
		blockPost = flag.Int("blockpostings", 0, "postings per OIF/UBT block (0 = default 64; sharded plans per shard)")
		cache     = flag.Int("cachepages", 0, "page cache per pooled reader, in pages (0 = 32 KB)")

		walDir     = flag.String("wal-dir", "", "write-ahead log directory; mutations become durable and restarts recover from it")
		fsync      = flag.String("fsync", "always", "WAL fsync policy: always (ack = durable), interval (background flush), or os (no fsync)")
		fsyncEvery = flag.Duration("fsync-interval", 0, "background flush period under -fsync interval (0 = 25ms)")
		walSegment = flag.Int64("wal-segment", 0, "WAL segment rotation threshold in bytes (0 = 4MB)")
		ckptBytes  = flag.Int64("checkpoint-bytes", 0, "log bytes between automatic checkpoints (0 = 64MB, negative disables)")

		maxPending  = flag.Int("maxpending", 0, "admission bound on queries waiting for a slot (0 = 256)")
		dispatchers = flag.Int("dispatchers", 0, "queries executing at once (0 = GOMAXPROCS)")
		chunk       = flag.Int("chunk", 0, fmt.Sprintf("ids per NDJSON response line (0 = 4096, at most %d: a coordinator refuses a line over %d bytes)", wire.MaxResultIDs, wire.MaxLineBytes))
	)
	flag.Parse()

	if *chunk > wire.MaxResultIDs {
		log.Fatalf("setcontaind: -chunk %d is over %d, the most ids whose line a coordinator reads", *chunk, wire.MaxResultIDs)
	}

	if *splitSnap != "" {
		if *snapshot == "" {
			log.Fatalf("setcontaind: -split-snapshot needs -snapshot naming the sharded container to split")
		}
		splitSnapshot(*snapshot, *splitSnap)
		return
	}
	if *shardOf >= 0 && (*shardCount < 1 || *shardOf >= *shardCount) {
		log.Fatalf("setcontaind: -shard-of %d needs -shard-count > %d", *shardOf, *shardOf)
	}

	build := func() *setcontain.Index {
		if *snapshot != "" {
			f, err := os.Open(*snapshot)
			if err != nil {
				log.Fatalf("setcontaind: %v", err)
			}
			restoreStart := time.Now()
			idx, err := setcontain.Open(f, setcontain.WithCachePages(*cache))
			f.Close()
			if err != nil {
				log.Fatalf("setcontaind: loading snapshot: %v", err)
			}
			log.Printf("restored %s index (%d records, %d pending, %d deleted) from %s in %v",
				idx.Kind(), idx.NumRecords(), idx.PendingInserts(), idx.Deleted(),
				*snapshot, time.Since(restoreStart).Round(time.Millisecond))
			return idx
		}
		coll, source, err := loadCollection(*data, *msweb, *replicas, *synthetic, *domain, *zipf, *seed)
		if err != nil {
			log.Fatalf("setcontaind: %v", err)
		}
		if *shardOf >= 0 {
			// A shard daemon loads the full dataset and keeps only the
			// records the partitioner routes here, re-numbered into this
			// shard's local id space — exactly the slice an in-process
			// sharded build would hand this shard.
			coll, err = shardSlice(coll, *shardOf, *shardCount)
			if err != nil {
				log.Fatalf("setcontaind: %v", err)
			}
			source = fmt.Sprintf("%s [shard %d/%d]", source, *shardOf, *shardCount)
		}
		kind, err := setcontain.ParseKind(*index)
		if err != nil {
			log.Fatalf("setcontaind: %v", err)
		}

		buildStart := time.Now()
		idx, err := setcontain.New(coll,
			setcontain.WithKind(kind),
			setcontain.WithShards(*shards),
			setcontain.WithPageSize(*pageSize),
			setcontain.WithBlockPostings(*blockPost),
			setcontain.WithCachePages(*cache),
		)
		if err != nil {
			log.Fatalf("setcontaind: building index: %v", err)
		}
		log.Printf("indexed %d records over %d items from %s: %s in %v",
			coll.Len(), coll.DomainSize(), source, kind, time.Since(buildStart).Round(time.Millisecond))
		return idx
	}

	var (
		idx     *setcontain.Index
		store   *setcontain.Store
		durable *setcontain.Durable
	)
	if *coordinator != "" {
		if *walDir != "" {
			log.Fatalf("setcontaind: -coordinator forwards mutations to the shard daemons; attach -wal-dir to them, not to the coordinator")
		}
		urls := splitURLs(*coordinator)
		if len(urls) == 0 {
			log.Fatalf("setcontaind: -coordinator carries no shard URLs")
		}
		dialCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		var err error
		idx, err = setcontain.ConnectShards(dialCtx, urls)
		cancel()
		if err != nil {
			log.Fatalf("setcontaind: connecting shards: %v", err)
		}
		store = setcontain.NewStore(idx, *cache)
		log.Printf("coordinating %d remote shards: %d records over %d items",
			len(urls), idx.NumRecords(), idx.Engine().DomainSize())
	} else if *walDir != "" {
		policy, err := wal.ParseSyncPolicy(*fsync)
		if err != nil {
			log.Fatalf("setcontaind: %v", err)
		}
		dopts := setcontain.DurableOptions{
			CachePages:      *cache,
			SegmentBytes:    *walSegment,
			Sync:            policy,
			SyncEvery:       *fsyncEvery,
			CheckpointBytes: *ckptBytes,
			Logf:            log.Printf,
		}
		openStart := time.Now()
		durable, err = setcontain.OpenDurable(*walDir, dopts)
		switch {
		case err == nil:
			st := durable.Stats()
			log.Printf("recovered %s index (%d records) from %s in %v: checkpoint lsn %d, %d log records replayed",
				durable.Index().Kind(), durable.Index().NumRecords(), *walDir,
				time.Since(openStart).Round(time.Millisecond), st.CheckpointLSN, st.Replay.Records)
		case errors.Is(err, setcontain.ErrNoCheckpoint):
			// First boot: seed the WAL directory from the dataset flags.
			durable, err = setcontain.NewDurable(*walDir, build(), dopts)
			if err != nil {
				log.Fatalf("setcontaind: initializing %s: %v", *walDir, err)
			}
			log.Printf("initialized durable index in %s (fsync %s)", *walDir, policy)
		default:
			log.Fatalf("setcontaind: opening %s: %v", *walDir, err)
		}
		idx = durable.Index()
		store = durable.Store()
	} else {
		idx = build()
		store = setcontain.NewStore(idx, *cache)
	}
	for _, p := range idx.ShardPlans() {
		log.Printf("shard %d: %s, %d records, theta %.2f", p.Shard, p.Kind, p.Records, p.Theta)
	}

	sv := serve.NewServer(idx, store, serve.Config{
		MaxPending:  *maxPending,
		Dispatchers: *dispatchers,
		ChunkIDs:    *chunk,
		Durable:     durable,
	})
	defer sv.Close()

	hs := &http.Server{
		Addr:              *addr,
		Handler:           sv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	if *debugAddr != "" {
		ds := &http.Server{Addr: *debugAddr, Handler: debugMux(), ReadHeaderTimeout: readHeaderTimeout}
		go func() {
			log.Printf("debug listener on %s (/debug/pprof/)", *debugAddr)
			if err := ds.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("setcontaind: debug listener: %v", err)
			}
		}()
		defer ds.Close()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Shutdown closes the listener (ListenAndServe returns immediately)
	// and then drains in-flight connections; main waits for the drain
	// before closing the server, so no query is refused mid-request.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			log.Printf("setcontaind: shutdown: %v", err)
		}
	}()

	log.Printf("serving on %s (POST /query, GET /query?q=…, /stream, /stats, /healthz, /admin/*)", *addr)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("setcontaind: %v", err)
	}
	stop()
	<-drained
	if durable != nil {
		// Flush the log's unsynced tail so even -fsync interval/os lose
		// nothing on a graceful shutdown.
		if err := durable.Close(); err != nil {
			log.Printf("setcontaind: closing WAL: %v", err)
		}
	}
	log.Printf("shut down cleanly")
}

// debugMux serves net/http/pprof for -debug-addr: a mux and a listener
// of their own, so a profile is never reachable through the public
// handler.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// shardSlice keeps only the records the round-robin partitioner routes
// to shard, re-numbered into the shard's local id space. The returned
// collection's id i is global id (i-1)*count + shard + 1 — the mapping
// a coordinator's Partitioner applies when merging this shard's
// answers.
func shardSlice(coll *setcontain.Collection, shard, count int) (*setcontain.Collection, error) {
	part := setcontain.NewRoundRobinPartitioner(count)
	out := setcontain.NewCollection(coll.DomainSize())
	for g := uint32(1); g <= uint32(coll.Len()); g++ {
		s, local := part.Locate(g)
		if s != shard {
			continue
		}
		set, err := coll.Record(g)
		if err != nil {
			return nil, err
		}
		id, err := out.Add(set)
		if err != nil {
			return nil, fmt.Errorf("shard slice: record %d: %w", g, err)
		}
		if id != local {
			return nil, fmt.Errorf("shard slice: record %d landed at local id %d, partitioner says %d", g, id, local)
		}
	}
	return out, nil
}

// splitURLs parses the -coordinator flag: comma-separated base URLs,
// blanks tolerated.
func splitURLs(s string) []string {
	var urls []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	return urls
}

// splitSnapshot decomposes a sharded snapshot container into one
// bootable single-engine snapshot file per shard (shard-000.snap, …)
// in dir.
func splitSnapshot(path, dir string) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatalf("setcontaind: %v", err)
	}
	defer f.Close()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatalf("setcontaind: %v", err)
	}
	err = setcontain.SplitSnapshot(f, func(s int, plan setcontain.ShardPlan, frame io.Reader) error {
		name := filepath.Join(dir, fmt.Sprintf("shard-%03d.snap", s))
		out, err := os.Create(name)
		if err != nil {
			return err
		}
		n, err := io.Copy(out, frame)
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		log.Printf("shard %d: %s, %d records, %d bytes -> %s", s, plan.Kind, plan.Records, n, name)
		return nil
	})
	if err != nil {
		log.Fatalf("setcontaind: %v", err)
	}
}

// loadCollection resolves the dataset flags to an indexed collection
// and a human-readable source description.
func loadCollection(data, msweb string, replicas, synthetic, domain int, zipf float64, seed int64) (*setcontain.Collection, string, error) {
	switch {
	case data != "" && msweb != "":
		return nil, "", errors.New("-data and -msweb are mutually exclusive")
	case data != "":
		f, err := os.Open(data)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		coll, err := setcontain.ReadCollection(f)
		return coll, data, err
	case msweb != "":
		f, err := os.Open(msweb)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		coll, err := setcontain.ReadMSWebCollection(f, replicas)
		return coll, fmt.Sprintf("%s (x%d)", msweb, replicas), err
	default:
		d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
			NumRecords: synthetic,
			DomainSize: domain,
			MinLen:     2,
			MaxLen:     16,
			ZipfTheta:  zipf,
			Seed:       seed,
		})
		if err != nil {
			return nil, "", err
		}
		src := fmt.Sprintf("synthetic (|D|=%d, domain %d, zipf %.2f, seed %d)", synthetic, domain, zipf, seed)
		return setcontain.WrapDataset(d), src, nil
	}
}
