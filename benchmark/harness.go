package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/setcontain"
	"repro/setcontain/serve"
)

// config is one run's parameters. The flags set workload, seed, seconds
// and trace; the rest are the fixed shape of the benchmark (shrunk only by
// the package's own tests).
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool

	records      int           // |D|
	poolOps      int           // ops in the pool `mix`
	paperPerSize int           // queries per predicate and |qs| in the §5 pool
	traceOps     int           // ops in the traced prefix
	tailSets     int           // sets inserted between the checkpoint and the crash image
	preloadSets  int           // durable_rw: sets in the delta when the window starts
	setupReps    int           // set-ups per untraced run; setup_s is their median
	writePeriod  time.Duration // durable_rw: the writer starts a write this often
	clients      int           // closed-loop clients
	segments     int           // segments the window is folded over
	outDir       string
	tmpDir       string
}

func defaultConfig() config {
	return config{
		seed:         1,
		seconds:      15,
		records:      200_000,
		poolOps:      2000,
		paperPerSize: 150,
		traceOps:     5000,
		tailSets:     400,
		preloadSets:  4800,
		setupReps:    2,
		writePeriod:  25 * time.Millisecond,
		clients:      2,
		segments:     5,
		outDir:       filepath.Join("benchmark", "out"),
		tmpDir:       filepath.Join(".bench_build", "tmp"),
	}
}

// syntheticConfig is the paper's §5 default dataset at |D| = records.
func (c config) syntheticConfig() dataset.SyntheticConfig {
	sc := dataset.DefaultSynthetic(c.records)
	sc.Seed = c.seed
	return sc
}

// warmCachePages is the page-cache budget of the warm workloads: 16 MB
// per query handle, the repository's hot-path convention (the root
// package's hotPoolPages), which holds the whole 200 000-record index.
const warmCachePages = 4096

// workload is one of the five named workloads. A fresh value is built for
// every set-up repetition.
type workload interface {
	// build constructs the system under test over ds: indexes, stores,
	// servers, listeners. Timed as set-up.
	build(r *runner, ds *dataset.Dataset) error
	// genOps generates the op pool from the seed. Not timed as set-up.
	genOps(r *runner) []*op
	// warm replays the whole pool once through the workload's clients,
	// checking every answer. Timed as set-up.
	warm(r *runner, ops []*op) *clientLog
	// clients returns the closed-loop clients of the measured window.
	clients(r *runner, ops []*op) []clientFunc
	// finish runs after the window: workload-specific checks and metrics.
	finish(r *runner, ops []*op, win *clientLog) error
	// ladder is the traced pass: budget is how long it may take.
	ladder(r *runner, ops []*op, budget time.Duration) error
	// stores returns the Stores whose counters describe the window, the
	// one clients talk to first (nil when the workload has none).
	stores() []*setcontain.Store
	// batcher returns the Batcher clients reach, or nil.
	batcher() *serve.Batcher
	// oifEngine returns a metered paper-protocol OIF engine, or nil when
	// the workload does not keep one (the probe then builds its own).
	oifEngine() setcontain.Engine
	// spaceBytes is the served index's Engine.Space, for space_amp.
	spaceBytes() int64
	close()
}

var workloadDefs = []struct {
	name string
	why  string
	make func() workload
}{
	{"paper_cold_io", "the paper's section-5 protocol: cold 32 KB cache, page counts; core, invfile and storage do all the work, working set far larger than the cache",
		func() workload { return &paperWorkload{} }},
	{"store_warm", "the op pool mix through Store.Exec*Append on a warm OIF index: engine, planner and Store pooling do the work, serve and transport are bypassed",
		func() workload { return &serveWorkload{kind: "store_warm"} }},
	{"http_single", "the same index and mix, one op per POST /query over loopback: adds serve.Batcher linger, JSON/NDJSON wire and net/http to store_warm's engine work",
		func() workload { return &serveWorkload{kind: "http_single"} }},
	{"http_scatter", "the same mix through a coordinator over two remote shard daemons: scatter, remote, /shard/* NDJSON and k-way merge; the slower shard sets each reply",
		func() workload { return &serveWorkload{kind: "http_scatter"} }},
	{"durable_rw", "a paced writer (InsertSets, DeleteIDs, fsync always) beside a reader on a Durable index with an unmerged delta and tombstones, then merge, checkpoint, crash image, recovery: WAL, snapio, delta paths",
		func() workload { return &durableWorkload{} }},
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, d := range workloadDefs {
		names[i] = d.name
	}
	return names
}

// runner carries one workload run.
type runner struct {
	cfg config
	m   *metricSet
	tr  *tracer // nil on an untraced run
	doc map[string]any

	rep int // set-up repetition in progress

	attempted int
	failed    int
	errs      []string
}

// buildTime reports one build.* timing, from the first set-up only.
func (r *runner) buildTime(name string, d time.Duration) {
	if r.rep == 0 {
		r.m.set(name, d.Seconds())
	}
}

func (r *runner) count(l *clientLog) {
	r.attempted += l.attempted
	r.failed += l.failed
	if l.firstErr != "" {
		r.errs = append(r.errs, l.firstErr)
	}
}

// check counts one post-window verification.
func (r *runner) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// liveHeapMB returns the bytes of live heap objects after a collection.
// (HeapAlloc, not HeapInuse: in-use spans also count the holes that freed
// objects leave, which moved this number by 10 % between identical runs.)
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC() // the second cycle drops what sync.Pool kept alive through the first
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// processSnap is the process-wide counters around the window.
type processSnap struct {
	mallocs, allocBytes, pauseNs uint64
	cpu                          time.Duration
}

func snapProcess() processSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return processSnap{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, pauseNs: ms.PauseTotalNs, cpu: cpu}
}

// layerSnap sums the public Stats() of the stores and the batcher.
type layerSnap struct {
	cache   setcontain.CacheStats
	decoded setcontain.DecodedCacheStats
	expr    setcontain.ExprStats // leaf and CSE counters over all stores; Expressions from the first
	batch   serve.BatcherStats
}

func snapLayers(w workload) layerSnap {
	var s layerSnap
	for i, st := range w.stores() {
		ss, es := st.Stats(), st.ExprStats()
		s.cache.Hits += ss.Cache.Hits
		s.cache.PageReads += ss.Cache.PageReads
		s.cache.Sequential += ss.Cache.Sequential
		s.cache.Near += ss.Cache.Near
		s.cache.Random += ss.Cache.Random
		s.decoded.Hits += ss.Decoded.Hits
		s.decoded.Misses += ss.Decoded.Misses
		s.decoded.Evicted += ss.Decoded.Evicted
		if i == 0 {
			s.expr.Expressions = es.Expressions
		}
		s.expr.EvaluatedLeaves += es.EvaluatedLeaves
		s.expr.StreamedLeaves += es.StreamedLeaves
		s.expr.SkippedLeaves += es.SkippedLeaves
		s.expr.CSEHits += es.CSEHits
		s.expr.CSEMisses += es.CSEMisses
	}
	if b := w.batcher(); b != nil {
		s.batch = b.Stats()
	}
	return s
}

// layerMetrics turns the counter deltas around the window into the
// per-layer metrics they define.
func (r *runner) layerMetrics(w workload, a, b layerSnap, pa, pb processSnap, ops int) {
	n := float64(ops)
	if len(w.stores()) > 0 {
		reads := float64(b.cache.PageReads - a.cache.PageReads)
		hits := float64(b.cache.Hits - a.cache.Hits)
		r.m.set("storage.page_reads_per_query", ratio(reads, n))
		r.m.set("storage.seq_share", ratio(float64(b.cache.Sequential-a.cache.Sequential), reads))
		r.m.set("storage.rand_share", ratio(float64(b.cache.Random-a.cache.Random), reads))
		r.m.set("storage.hit_rate", ratio(hits, hits+reads))
		dh, dm := float64(b.decoded.Hits-a.decoded.Hits), float64(b.decoded.Misses-a.decoded.Misses)
		r.m.set("core.decoded_hit_rate", ratio(dh, dh+dm))
		r.m.set("core.decoded_evictions_per_query", ratio(float64(b.decoded.Evicted-a.decoded.Evicted), n))
		exprs := float64(b.expr.Expressions - a.expr.Expressions)
		ev := float64(b.expr.EvaluatedLeaves - a.expr.EvaluatedLeaves)
		sk := float64(b.expr.SkippedLeaves - a.expr.SkippedLeaves)
		r.m.set("planner.leaves_evaluated_per_expr", ratio(ev, exprs))
		r.m.set("planner.skipped_leaf_share", ratio(sk, ev+sk))
		r.m.set("planner.streamed_leaf_share", ratio(float64(b.expr.StreamedLeaves-a.expr.StreamedLeaves), ev))
		ch, cm := float64(b.expr.CSEHits-a.expr.CSEHits), float64(b.expr.CSEMisses-a.expr.CSEMisses)
		r.m.set("planner.cse_hit_rate", ratio(ch, ch+cm))
	}
	if w.batcher() != nil {
		q := float64(b.batch.Queries - a.batch.Queries)
		rej := float64(b.batch.Rejected - a.batch.Rejected)
		r.m.set("batcher.mean_batch", ratio(q, float64(b.batch.Batches-a.batch.Batches)))
		r.m.set("batcher.rejected_ratio", ratio(rej, q+rej))
		r.m.set("batcher.canceled", float64(b.batch.Canceled-a.batch.Canceled))
	}
	r.m.set("process.allocs_per_op", ratio(float64(pb.mallocs-pa.mallocs), n))
	r.m.set("process.alloc_bytes_per_op", ratio(float64(pb.allocBytes-pa.allocBytes), n))
	r.m.set("process.gc_pause_ms", float64(pb.pauseNs-pa.pauseNs)/1e6)
	r.m.set("process.cpu_s_per_kop", ratio((pb.cpu-pa.cpu).Seconds(), n/1000))
}

// totalPostings is the number of (record, item) pairs in ds.
func totalPostings(ds *dataset.Dataset) int64 {
	var n int64
	for _, rec := range ds.Records() {
		n += int64(len(rec.Set))
	}
	return n
}

// runWorkload runs one workload end to end and returns its metrics and
// the detail document for result.json.
func runWorkload(cfg config) (*runner, error) {
	var mk func() workload
	for _, d := range workloadDefs {
		if d.name == cfg.workload {
			mk = d.make
		}
	}
	if mk == nil {
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames())
	}
	r := &runner{cfg: cfg, m: newMetricSet(), doc: map[string]any{}}
	reps := cfg.setupReps
	if cfg.trace {
		r.tr = newTracer()
		reps = 1
	}
	if err := os.MkdirAll(cfg.tmpDir, 0o755); err != nil {
		return nil, err
	}

	// Set-up, several times over: dataset generation, index build, listener
	// start and the warm-up pass. Op-pool generation and the oracle run
	// once, between build and warm-up of the first repetition, with the
	// clock stopped.
	var (
		w        workload
		ds       *dataset.Dataset
		ops      []*op
		setups   []float64
		heapMB   float64
		oracleAt time.Duration
	)
	defer func() {
		if w != nil {
			w.close()
		}
	}()
	for rep := 0; rep < reps; rep++ {
		if w != nil {
			w.close()
			w, ds = nil, nil
		}
		heapBefore := liveHeapMB()
		t0 := time.Now()
		var err error
		if ds, err = dataset.GenerateSynthetic(cfg.syntheticConfig()); err != nil {
			return nil, err
		}
		genTime := time.Since(t0)
		w = mk()
		r.rep = rep
		r.buildTime("build.dataset_gen_s", genTime)
		if err := w.build(r, ds); err != nil {
			return nil, fmt.Errorf("%s: build: %w", cfg.workload, err)
		}
		buildTime := time.Since(t0)
		if rep == 0 {
			ops = w.genOps(r)
			if len(ops) == 0 {
				return nil, fmt.Errorf("%s: empty op pool", cfg.workload)
			}
			for i, o := range ops {
				o.idx = int32(i)
			}
			oracleAt = computeOracle(ds, ops)
		}
		t1 := time.Now()
		r.count(w.warm(r, ops))
		setups = append(setups, (buildTime + time.Since(t1)).Seconds())
		heapMB = liveHeapMB() - heapBefore
	}
	r.m.set("setup_s", median(setups))
	r.m.set("setup_heap_mb", heapMB)
	r.m.set("bench.oracle_s", oracleAt.Seconds())
	r.doc["setup_s_values"] = setups
	r.doc["ops"] = len(ops)
	r.doc["op_stream_sha256"] = streamHash(ops)

	// The measured window. A traced run spends half its time here (for
	// the counters) and half in the ladder.
	window := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		window /= 2
	}
	la, pa := snapLayers(w), snapProcess()
	win := mergeLogs(runWindow(window, w.clients(r, ops)))
	lb, pb := snapLayers(w), snapProcess()
	r.count(win)
	r.layerMetrics(w, la, lb, pa, pb, win.attempted)
	// The gated timing metrics come from the quiet execution of each block
	// of ops (see quietWindow): a spell of host interference that takes a
	// third off the whole-window numbers, which are kept beside them,
	// ungated, moves these by a few per cent.
	classes := byClass(win.samples)
	quiet := quietWindow(win.samples, len(ops))
	r.doc["window_by_class"] = classes
	r.doc["window_segments"] = foldWindow(win.samples, int64(window), cfg.segments)
	r.doc["window_quiet"] = quiet
	r.m.set("throughput_ops_s", quiet.Throughput)
	r.m.set("query_p50_us", quiet.P50)
	r.m.set("query_p90_us", quiet.P90)
	windowReads := float64(classes["reads"].Samples) / window.Seconds()
	r.m.set("bench.window_read_ops_s", windowReads)
	r.m.set("bench.window_p50_us", classes["reads"].P50)
	r.m.set("bench.window_shortfall_share", 1-ratio(windowReads, quiet.Throughput))
	r.m.set("query_p99_us", classes["reads"].P99)
	r.m.set("planner.expr_p50_us", classes["expr"].P50)
	r.m.set("planner.expr_limit_p50_us", classes["expr_limit"].P50)
	r.m.set("write_p50_us", classes["write"].P50)
	r.m.set("write_p99_us", classes["write"].P99)

	if err := w.finish(r, ops, win); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}

	// The paper's probe and the space ratio, on every workload.
	probe, err := paperProbe(r, ds, w.oifEngine())
	if err != nil {
		return nil, fmt.Errorf("%s: paper probe: %w", cfg.workload, err)
	}
	r.m.set("pages_per_query", probe.pagesPerQuery())
	r.m.set("io_model_ms_per_query", probe.ioMsPerQuery())
	r.m.set("space_amp", ratio(float64(w.spaceBytes()), float64(4*totalPostings(ds))))

	if cfg.trace {
		if err := w.ladder(r, ops, window); err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", cfg.workload, err)
		}
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return nil, err
		}
		if err := r.tr.write(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".jsonl")); err != nil {
			return nil, err
		}
	}
	r.m.set("failed_ratio", ratio(float64(r.failed), float64(r.attempted)))
	r.errs = append(r.errs, r.m.errs...)
	return r, nil
}
