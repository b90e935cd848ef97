package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/setcontain"
)

func TestPercentileNearestRank(t *testing.T) {
	vals := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {99, 100}, {90, 90}, {10, 10}, {1, 10}, {100, 100}} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

// Three segments with known contents: the folded metric is the median of
// the per-segment values, the spread their range over that median, and
// the sample count covers every segment.
func TestFoldWindowMedianOfSegments(t *testing.T) {
	const seg = int64(1e9)
	var samples []sample
	add := func(segment, n int, lat int64, class uint8) {
		for i := 0; i < n; i++ {
			samples = append(samples, sample{end: int64(segment)*seg + int64(i+1), lat: lat, class: class})
		}
	}
	add(0, 100, 1000, classQuery) // p50 1 us, 100 ops
	add(1, 300, 3000, classQuery) // p50 3 us, 300 ops
	add(2, 200, 2000, classExpr)  // p50 2 us, 200 ops
	add(2, 10, 9000, classWrite)  // writes do not count as reads
	// An op in flight at the deadline ends after the window: last segment.
	samples = append(samples, sample{end: 3*seg + 5, lat: 2000, class: classExpr})

	ws := foldWindow(samples, 3*seg, 3)
	if ws.ReadP50.Median != 2 || ws.ReadP50.Samples != 601 {
		t.Errorf("read p50 = %+v, want median 2 over 601 samples", ws.ReadP50)
	}
	if want := (3.0 - 1.0) / 2.0; ws.ReadP50.Spread != want {
		t.Errorf("read p50 spread = %v, want %v", ws.ReadP50.Spread, want)
	}
	if ws.Throughput.Median != 211 || ws.Throughput.Samples != 611 {
		t.Errorf("throughput = %+v, want median 211 ops/s over 611 samples", ws.Throughput)
	}
	by := byClass(samples)
	if by["write"].P50 != 9 || by["write"].Samples != 10 || by["expr"].Samples != 201 || by["reads"].Samples != 601 {
		t.Errorf("by class = %+v, want 10 writes at 9 us, 201 exprs, 601 reads", by)
	}
	if by["reads"].P50 != 2 || by["reads"].P99 != 3 {
		t.Errorf("whole-window reads p50/p99 = %v/%v, want 2/3", by["reads"].P50, by["reads"].P99)
	}
}

// A pool of 7 ops (a block of 5 and a short last block of 2) replayed by
// two readers: each block's quiet execution is its shortest whole one, the
// percentiles run over the op latencies inside those, and the throughput is
// the readers' rate at the quiet block times. Writes, a block cut short by
// a failed op and one cut by the window's end are left out.
func TestQuietWindow(t *testing.T) {
	var samples []sample
	clock := map[uint8]int64{}
	run := func(client uint8, first int32, lats ...int64) {
		for i, l := range lats {
			clock[client] += l
			samples = append(samples, sample{end: clock[client], lat: l, op: first + int32(i), client: client, class: classQuery})
		}
	}
	run(0, 0, 1000, 2000, 3000, 4000, 5000) // block 0 in 15 us
	run(0, 5, 7000, 9000)                   // block 1 in 16 us
	run(0, 0, 1000, 1000, 2000, 2000, 3000) // block 0 in 9 us: the quiet one
	run(0, 5, 8000)                         // block 1 cut by the window's end
	run(1, 5, 6000, 8000)                   // block 1 in 14 us: the quiet one
	run(1, 0, 100, 100)                     // block 0 with op 2 failed ...
	run(1, 3, 100, 100)                     // ... is not whole
	samples = append(samples, sample{end: 5, lat: 5, op: 0, client: 2, class: classWrite})
	q := quietWindow(samples, 7)
	if q.Blocks != 2 || q.Ops != 7 || q.Samples != 4 || q.Readers != 2 || q.MinReps != 2 || q.MedianReps != 2 {
		t.Errorf("quiet = %+v, want 2 blocks of 7 ops chosen from 4 whole executions of 2 readers", q)
	}
	// The latencies inside the quiet executions: 1 1 2 2 3 6 8 us.
	if q.P50 != 2 || q.P90 != 8 {
		t.Errorf("quiet p50/p90 = %v/%v us, want 2/8", q.P50, q.P90)
	}
	if want := 2 * 7 / 23e-6; q.Throughput != want {
		t.Errorf("quiet throughput = %v, want %v (2 readers, 7 ops in 9+14 us)", q.Throughput, want)
	}
	if q := quietWindow(nil, 7); q.Blocks != 0 || q.Throughput != 0 {
		t.Errorf("quiet of nothing = %+v", q)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps 2: 10..60 covered once
		{ID: 4, Parent: 1, Start: 90, End: 120}, // clipped to the parent's end
		{ID: 5, Parent: 2, Start: 15, End: 20},  // grandchild: counts against 2 only
		{ID: 6, Parent: 1, Start: 35, End: 38},  // inside already covered time
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 30, 5: 5, 6: 3} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func testDataset(t *testing.T, records int, seed int64) *dataset.Dataset {
	t.Helper()
	cfg := defaultConfig()
	cfg.records, cfg.seed = records, seed
	ds, err := dataset.GenerateSynthetic(cfg.syntheticConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestSeedDeterminism(t *testing.T) {
	pool := func(seed int64) (string, string) {
		ds := testDataset(t, 3000, seed)
		return streamHash(genMix(ds, seed+2, 200)), streamHash(genPaper(ds, seed+1, 3))
	}
	mixA, paperA := pool(1)
	mixB, paperB := pool(1)
	if mixA != mixB || paperA != paperB {
		t.Fatalf("same seed gave different op streams: %s/%s vs %s/%s", mixA, paperA, mixB, paperB)
	}
	if mixC, paperC := pool(7); mixC == mixA || paperC == paperA {
		t.Fatalf("seeds 1 and 7 gave the same op stream")
	}
}

func TestMixShapeAndOracle(t *testing.T) {
	ds := testDataset(t, 3000, 1)
	ops := genMix(ds, 3, 200)
	if len(ops) < 190 || len(ops) > 200 {
		t.Fatalf("pool of %d ops, want about 200", len(ops))
	}
	counts := map[uint8]int{}
	seen := map[string]bool{}
	for _, o := range ops {
		counts[o.class]++
		if seen[o.text()] {
			t.Errorf("duplicate op %s", o.text())
		}
		seen[o.text()] = true
	}
	if counts[classQuery] < 110 || counts[classExpr] < 55 || counts[classLimit] < 18 {
		t.Errorf("class counts %v, want about 120/60/20", counts)
	}
	computeOracle(ds, ops)
	for _, o := range ops {
		// The engine's own reference evaluator over the naive scan agrees
		// with the oracle's leaf-combining one.
		want, err := o.expr.Eval(naiveTarget{ds})
		if err != nil {
			t.Fatal(err)
		}
		if o.class == classLimit && len(want) > o.limit {
			want = want[:o.limit]
		}
		if !slices.Equal(o.want, want) {
			t.Errorf("%s: oracle has %d ids, Expr.Eval over naive has %d", o.text(), len(o.want), len(want))
		}
	}
}

// naiveTarget answers the three predicates by internal/naive's scans.
type naiveTarget struct{ ds *dataset.Dataset }

func (n naiveTarget) Subset(qs []uint32) ([]uint32, error) {
	return naiveEval(n.ds, setcontain.SubsetQuery(qs)), nil
}

func (n naiveTarget) Equality(qs []uint32) ([]uint32, error) {
	return naiveEval(n.ds, setcontain.EqualityQuery(qs)), nil
}

func (n naiveTarget) Superset(qs []uint32) ([]uint32, error) {
	return naiveEval(n.ds, setcontain.SupersetQuery(qs)), nil
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestWork   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestLayer  `json:"per_layer"`
}

type manifestWork struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func catalogueManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: int(defaultConfig().seconds),
	}
	for _, w := range workloadDefs {
		m.Workloads = append(m.Workloads, manifestWork{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestLayer{d.name, d.unit, d.better})
	}
	return m
}

// BENCHMARK.json is generated from the catalogue: run this test with
// UPDATE_MANIFEST=1 after changing a metric, a bound or a workload.
func TestCatalogueMatchesManifest(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want := catalogueManifest()
	if os.Getenv("UPDATE_MANIFEST") != "" {
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the catalogue in metrics.go / harness.go; rerun with UPDATE_MANIFEST=1")
	}
	for _, w := range want.Workloads {
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if n := len(want.PerLayer); n > 128 {
		t.Errorf("%d per-layer metrics, limit 128", n)
	}
}

// The smoke: every workload, untraced and traced, for 200 ms on a
// 2 000-record dataset. Every metric of the mode's catalogue is emitted
// exactly once (metricSet records a double set as an error), nothing
// fails, and the end-to-end metrics are never zero.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, trace := range []bool{false, true} {
		for _, name := range workloadNames() {
			cfg := defaultConfig()
			cfg.workload, cfg.trace = name, trace
			cfg.seed, cfg.seconds = 7, 0.2
			cfg.records, cfg.poolOps, cfg.paperPerSize, cfg.traceOps, cfg.tailSets, cfg.setupReps, cfg.preloadSets = 2000, 100, 2, 100, 400, 2, 256
			cfg.writePeriod = time.Millisecond
			cfg.tmpDir, cfg.outDir = t.TempDir(), t.TempDir()
			r, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			line := r.line()
			if !line.Correct || line.Failed != 0 || r.m.vals["failed_ratio"] != 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d errors=%v", name, trace, line.Correct, line.Failed, r.errs)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics on the line, catalogue has %d", name, trace, len(line.Metrics), len(defs))
			}
			for _, d := range endToEnd {
				if v, ok := r.m.vals[d.name]; !ok || v <= 0 {
					t.Errorf("%s trace=%v: end-to-end metric %s = %v (set: %v), want > 0", name, trace, d.name, v, ok)
				}
			}
			if trace {
				for _, want := range tracedMetrics[name] {
					if _, ok := r.m.vals[want]; !ok {
						t.Errorf("%s: traced run did not set %s", name, want)
					}
				}
				if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+name+".jsonl")); err != nil {
					t.Errorf("%s: no span file: %v", name, err)
				}
			}
			for _, want := range windowMetrics[name] {
				if _, ok := r.m.vals[want]; !ok {
					t.Errorf("%s trace=%v: %s not set", name, trace, want)
				}
			}
		}
	}
}

// windowMetrics are the per-layer metrics each workload must produce on
// any run; tracedMetrics those only its traced run adds.
var (
	common       = []string{"build.dataset_gen_s", "build.index_s.oif", "process.allocs_per_op", "process.cpu_s_per_kop", "bench.oracle_s", "failed_ratio"}
	storeCounted = []string{"storage.hit_rate", "core.decoded_hit_rate", "planner.leaves_evaluated_per_expr", "planner.expr_p50_us", "planner.expr_limit_p50_us"}

	windowMetrics = map[string][]string{
		"paper_cold_io": append([]string{"build.index_s.if", "build.index_s.ubt"}, common...),
		"store_warm":    append(storeCounted, common...),
		"http_single":   append(append([]string{"batcher.mean_batch", "batcher.rejected_ratio", "batcher.canceled"}, storeCounted...), common...),
		"http_scatter":  append(append([]string{"batcher.mean_batch", "build.split_snapshot_s"}, storeCounted...), common...),
		"durable_rw": append([]string{"write_p50_us", "write_p99_us", "wal_bytes_per_user_byte", "recovery_s",
			"store.query_p99_during_merge_us", "durable.merge_ms_mean", "durable.checkpoints", "wal.appends_per_write",
			"wal.bytes_per_append", "wal.syncs_per_write", "wal.sync_us_mean", "wal.sync_share", "wal.replay_records_per_s"}, common...),
	}
	tracedMetrics = map[string][]string{
		"paper_cold_io": {"storage.page_reads_per_query", "storage.seq_share", "core.query_self_us", "core.oif_if_pages_ratio",
			"invfile.pages_per_query", "invfile.query_self_us", "ubtree.pages_per_query", "trace.overhead_pct"},
		"store_warm": {"core.query_self_us", "engine.self_us", "store.self_us", "planner.parse_us", "planner.plan_us",
			"planner.eval_us", "sharded.direct_self_us", "sharded.inproc_client_self_us", "trace.overhead_pct"},
		"http_single": {"core.query_self_us", "engine.self_us", "store.self_us", "batcher.self_us", "wire.request_encode_us",
			"wire.response_decode_us", "http.handler_self_us", "http.transport_us", "http.response_bytes_per_op", "trace.overhead_pct"},
		"http_scatter": {"batcher.self_us", "http.handler_self_us", "http.transport_us", "scatter.self_us",
			"remote.shard_rtt_us", "remote.shard_skew_us", "remote.bytes_per_op", "trace.overhead_pct"},
		"durable_rw": {"durable.self_us", "wal.fs_write_us", "snapio.save_mb_s", "snapio.restore_mb_s", "trace.overhead_pct"},
	}
)
