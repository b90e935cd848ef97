package setcontain

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
)

// skewedCollection draws records whose items follow a Zipf law, the
// distribution the paper (and the shard planner) is built around.
func skewedCollection(t *testing.T, records, domain int, theta float64, seed int64) *Collection {
	t.Helper()
	c := NewCollection(domain)
	rng := rand.New(rand.NewSource(seed))
	z := dataset.NewZipf(domain, theta)
	for i := 0; i < records; i++ {
		set := z.SampleDistinct(rng, 1+rng.Intn(8))
		if _, err := c.Add(set); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// zipfWorkload mixes the three predicates over Zipf-drawn items, so
// queries concentrate on the frequent items like real traffic does.
func zipfWorkload(n, domain int, theta float64, seed int64) []Query {
	rng := rand.New(rand.NewSource(seed))
	z := dataset.NewZipf(domain, theta)
	preds := []Predicate{PredicateSubset, PredicateEquality, PredicateSuperset}
	qs := make([]Query, n)
	for i := range qs {
		qs[i] = Query{
			Pred:  preds[rng.Intn(len(preds))],
			Items: z.SampleDistinct(rng, 1+rng.Intn(5)),
		}
	}
	return qs
}

// TestShardedMatchesSingleShard is the core contract: for random skewed
// workloads, a sharded engine at any shard count returns exactly the
// ids, in exactly the order, of the equivalent single-shard engine.
func TestShardedMatchesSingleShard(t *testing.T) {
	const domain = 60
	c := skewedCollection(t, 3000, domain, 0.9, 11)
	single, err := New(c, WithKind(OIF), WithPageSize(512), WithBlockPostings(8))
	if err != nil {
		t.Fatal(err)
	}
	queries := zipfWorkload(150, domain, 0.9, 12)
	for _, shards := range []int{1, 2, 3, 5, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sharded, err := New(c, WithKind(Sharded), WithShards(shards),
				WithPageSize(512), WithBlockPostings(8))
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				want, err := single.Eval(q)
				if err != nil {
					t.Fatalf("single %s: %v", q, err)
				}
				got, err := sharded.Eval(q)
				if err != nil {
					t.Fatalf("sharded %s: %v", q, err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s: sharded %v, single %v", q, got, want)
				}
			}
		})
	}
}

// TestShardedMoreShardsThanRecords leaves some shards empty; queries
// must still merge correctly.
func TestShardedMoreShardsThanRecords(t *testing.T) {
	c := NewCollection(10)
	for _, set := range [][]Item{{1, 2}, {2, 3}, {1, 2, 3}, {}, {5}} {
		if _, err := c.Add(set); err != nil {
			t.Fatal(err)
		}
	}
	single, err := New(c, WithKind(InvertedFile), WithPageSize(512))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := New(c, WithKind(Sharded), WithShards(8), WithPageSize(512))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []Query{
		SubsetQuery([]Item{2}), SubsetQuery(nil), EqualityQuery([]Item{1, 2}),
		SupersetQuery([]Item{1, 2, 3, 5}), SupersetQuery(nil), SubsetQuery([]Item{9}),
	} {
		want, err := single.Eval(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sharded.Eval(q)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("%s: sharded %v, single %v", q, got, want)
		}
	}
}

// TestShardedPlans checks the skew-aware planner: a skewed collection
// gets OIF shards with a sized frontier, a uniform one inverted-file
// shards, and ShardPlans reports one decision per shard.
func TestShardedPlans(t *testing.T) {
	skew := skewedCollection(t, 4000, 400, 1.0, 21)
	ix, err := New(skew, WithKind(Sharded), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	plans := ShardPlans(ix.Engine())
	if len(plans) != 4 {
		t.Fatalf("ShardPlans: %d entries", len(plans))
	}
	for _, p := range plans {
		if p.Kind != OIF {
			t.Errorf("skewed shard %d planned %v (theta %.2f)", p.Shard, p.Kind, p.Theta)
		}
		if p.BlockPostings <= 0 {
			t.Errorf("skewed shard %d: frontier unsized: %+v", p.Shard, p)
		}
	}

	uniform := sampleCollection(t) // uniform items over 40
	ix, err = New(uniform, WithKind(Sharded), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ShardPlans(ix.Engine()) {
		if p.Kind != InvertedFile {
			t.Errorf("uniform shard %d planned %v (theta %.2f)", p.Shard, p.Kind, p.Theta)
		}
	}

	if got := ShardPlans(ShardEngines(ix.Engine())[0]); got != nil {
		t.Errorf("ShardPlans on inner engine = %v, want nil", got)
	}
}

// TestShardedExplicitBlockPostings: an explicit WithBlockPostings wins
// over the planner's frontier sizing — including when it equals the
// package default, which the planner must not mistake for "unset".
func TestShardedExplicitBlockPostings(t *testing.T) {
	c := skewedCollection(t, 2000, 300, 1.0, 31)
	for _, explicit := range []int{8, 64} {
		ix, err := New(c, WithKind(Sharded), WithShards(2), WithBlockPostings(explicit))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ShardPlans(ix.Engine()) {
			if p.Kind == OIF && p.BlockPostings != explicit {
				t.Errorf("shard %d: explicit block postings %d overridden to %d",
					p.Shard, explicit, p.BlockPostings)
			}
		}
	}
	// Left unset, the planner sizes the frontier itself (these skewed
	// shards have hot lists well above 64^2 postings is not guaranteed,
	// so only assert it picked something valid).
	ix, err := New(c, WithKind(Sharded), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ShardPlans(ix.Engine()) {
		if p.Kind == OIF && p.BlockPostings <= 0 {
			t.Errorf("shard %d: planner left frontier unsized", p.Shard)
		}
	}
}

// TestShardedInsertAndMerge checks global ids stay dense and identical
// to the single-shard engine across the update path.
func TestShardedInsertAndMerge(t *testing.T) {
	c := skewedCollection(t, 500, 50, 0.8, 41)
	single, err := New(c, WithKind(OIF), WithPageSize(512), WithBlockPostings(8))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := New(c, WithKind(Sharded), WithShards(3), WithPageSize(512), WithBlockPostings(8))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	z := dataset.NewZipf(50, 0.8)
	for i := 0; i < 25; i++ {
		set := z.SampleDistinct(rng, 1+rng.Intn(5))
		a, err := single.Insert(set)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sharded.Insert(set)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("insert %d: single id %d, sharded id %d", i, a, b)
		}
	}
	if got, want := sharded.PendingInserts(), 25; got != want {
		t.Fatalf("pending inserts %d, want %d", got, want)
	}
	queries := zipfWorkload(60, 50, 0.8, 43)
	compare := func(stage string) {
		t.Helper()
		for _, q := range queries {
			want, err := single.Eval(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sharded.Eval(q)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) && !(len(got) == 0 && len(want) == 0) {
				t.Fatalf("%s %s: sharded %v, single %v", stage, q, got, want)
			}
		}
	}
	compare("pre-merge")
	if err := sharded.MergeDelta(); err != nil {
		t.Fatal(err)
	}
	if err := single.MergeDelta(); err != nil {
		t.Fatal(err)
	}
	if got := sharded.PendingInserts(); got != 0 {
		t.Fatalf("pending inserts after merge: %d", got)
	}
	compare("post-merge")
}

// TestShardedStoreParallelCancel drives a Store over a sharded index
// from several goroutines and cancels mid-stream: every Exec must either
// succeed with the exact single-shard answer or fail with
// context.Canceled, and Execs after the cancel must fail. Under -race
// this exercises the concurrent interrupt propagation into every shard's
// buffer pool.
func TestShardedStoreParallelCancel(t *testing.T) {
	const domain = 60
	c := skewedCollection(t, 3000, domain, 0.9, 51)
	ix, err := New(c, WithKind(Sharded), WithShards(4), WithPageSize(512), WithBlockPostings(8))
	if err != nil {
		t.Fatal(err)
	}
	single, err := New(c, WithKind(OIF), WithPageSize(512), WithBlockPostings(8))
	if err != nil {
		t.Fatal(err)
	}
	queries := zipfWorkload(200, domain, 0.9, 52)
	want := make([][]uint32, len(queries))
	for i, q := range queries {
		if want[i], err = single.Eval(q); err != nil {
			t.Fatal(err)
		}
	}

	store := NewStore(ix, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(queries); i += 4 {
				if i == 60 {
					cancel()
				}
				got, err := store.Exec(ctx, queries[i])
				switch {
				case errors.Is(err, context.Canceled):
					// Acceptable after the cancel point.
				case err != nil:
					errs <- fmt.Errorf("query %d: %v", i, err)
					return
				case !slices.Equal(got, want[i]) && !(len(got) == 0 && len(want[i]) == 0):
					errs <- fmt.Errorf("query %d (%s): got %v want %v", i, queries[i], got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if _, err := store.Exec(ctx, queries[0]); !errors.Is(err, context.Canceled) {
		t.Errorf("post-cancel Exec: got %v, want context.Canceled", err)
	}
}

// TestShardedCapabilities covers the engine surface the generic
// capability test can't reach: snapshots, metering, rewrapping.
func TestShardedCapabilities(t *testing.T) {
	c := sampleCollection(t)
	ix, err := New(c, WithKind(Sharded), WithShards(3), WithPageSize(512))
	if err != nil {
		t.Fatal(err)
	}
	eng := ix.Engine()
	var snap bytes.Buffer
	if err := eng.Save(&snap); err != nil {
		t.Errorf("Save: %v", err)
	} else {
		back, err := Open(bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if back.Kind() != Sharded || back.NumRecords() != c.Len() {
			t.Errorf("reloaded sharded: kind %v, records %d", back.Kind(), back.NumRecords())
		}
	}
	if err := eng.SetPool(nil); err == nil {
		t.Error("SetPool succeeded, want per-shard pool error")
	}
	if eng.Pool() == nil {
		t.Error("Pool() = nil")
	}
	shards, ok := eng.Unwrap().([]ShardClient)
	if !ok || len(shards) != 3 {
		t.Fatalf("Unwrap = %T (%d shards)", eng.Unwrap(), len(shards))
	}
	again, err := ShardedOverClients(context.Background(), shards)
	if err != nil {
		t.Fatal(err)
	}
	if again.Kind() != Sharded || again.NumRecords() != c.Len() {
		t.Errorf("rewrapped: kind %v, records %d", again.Kind(), again.NumRecords())
	}
	want, err := eng.Subset([]Item{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := again.Subset([]Item{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Errorf("rewrapped answers diverge: %v vs %v", got, want)
	}
	if _, err := ShardedOverClients(context.Background(), nil); err == nil {
		t.Error("ShardedOverClients(no clients) succeeded, want error")
	}

	eng.ResetStats()
	if _, err := eng.Subset([]Item{0, 1}); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.PageReads == 0 && st.Hits == 0 {
		t.Error("sharded stats recorded nothing")
	}
	if sp := eng.Space(); sp.Pages <= 0 || sp.Bytes != sp.Pages*512 {
		t.Errorf("implausible sharded space %+v", sp)
	}
}

// shardOfRecords builds a one-engine shard client holding n records.
func shardOfRecords(t *testing.T, n int) ShardClient {
	t.Helper()
	c := NewCollection(8)
	for i := 0; i < n; i++ {
		if _, err := c.Add([]Item{Item(i % 8)}); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := New(c, WithKind(InvertedFile), WithPageSize(512))
	if err != nil {
		t.Fatal(err)
	}
	return InprocShard(ix.Engine())
}

// TestShardedSplitValidation: a shard set whose record counts are not a
// round-robin deal in shard order — daemons restored from different
// snapshots, coordinator URLs in the wrong order — must not assemble,
// through ShardedOverClients or through Open of a container holding
// such a set; the error names the first offending shard and both counts.
func TestShardedSplitValidation(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		counts   []int
		offender int    // -1: the set is a valid split
		says     string // what the refusal must spell out
	}{
		{[]int{3, 5}, 1, "holds 5 records beside shard 0's 3"},
		{[]int{6, 4}, 1, "holds 4 records beside shard 0's 6"},
		{[]int{5, 3}, 1, "holds 3 records beside shard 0's 5"},
		{[]int{4, 4, 3, 4}, 3, "holds 4 records beside shard 2's 3"},
		{[]int{5, 4}, -1, ""},
		{[]int{4, 4}, -1, ""},
		{[]int{1, 1, 0, 0}, -1, ""}, // more shards than records
	} {
		clients := make([]ShardClient, len(tc.counts))
		total := 0
		for s, n := range tc.counts {
			clients[s] = shardOfRecords(t, n)
			total += n
		}
		ix, err := ShardedOverClients(ctx, clients)
		if tc.offender < 0 {
			if err != nil {
				t.Errorf("counts %v: %v, want the split accepted", tc.counts, err)
			} else if ix.NumRecords() != total {
				t.Errorf("counts %v: assembled %d records, want %d", tc.counts, ix.NumRecords(), total)
			}
			continue
		}
		var se *ShardError
		if !errors.As(err, &se) || se.Shard != tc.offender || !strings.Contains(err.Error(), tc.says) {
			t.Errorf("counts %v: got %v, want a ShardError on shard %d saying %q", tc.counts, err, tc.offender, tc.says)
		}
	}

	// Open goes through the same constructor. The writer never produces
	// such a container, so one is written here by a hand-assembled engine
	// holding a valid split's shards in the wrong order.
	valid, err := New(skewedCollection(t, 7, 8, 0.5, 3), WithKind(Sharded), WithShards(2), WithPageSize(512))
	if err != nil {
		t.Fatal(err)
	}
	good := valid.eng.(*shardedEngine)
	swapped := &shardedEngine{
		clients: []ShardClient{good.clients[1], good.clients[0]},
		part:    good.part, plans: []ShardPlan{good.plans[1], good.plans[0]}, domain: good.domain,
		rd: &shardedReader{},
	}
	var snap bytes.Buffer
	if err := swapped.Save(&snap); err != nil {
		t.Fatal(err)
	}
	_, err = Open(&snap)
	var se *ShardError
	if !errors.Is(err, ErrBadSnapshot) || !errors.As(err, &se) || se.Shard != 1 {
		t.Errorf("Open of a container with swapped shards: %v, want ErrBadSnapshot over a ShardError on shard 1", err)
	}
}

// TestShardedEngineLevelSessions: the engine's own predicate calls run
// on sessions that may answer from the snapshot they opened on, so every
// mutation must retire them — Index.Subset and EvalExpr straight after
// Index.Insert, Delete and MergeDelta, with no Store in between, see the
// mutation; the cache statistics are those of the sessions the queries
// ran on; and what only a local shard knows survives reassembly over
// in-process clients.
func TestShardedEngineLevelSessions(t *testing.T) {
	const domain = 30
	c := skewedCollection(t, 400, domain, 0.9, 61)
	build := func() *Index {
		ix, err := New(c, WithKind(Sharded), WithShards(3), WithPageSize(512), WithBlockPostings(8))
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	built := build()
	original := build()
	var clients []ShardClient
	for _, eng := range ShardEngines(original.Engine()) {
		clients = append(clients, InprocShard(eng))
	}
	over, err := ShardedOverClients(context.Background(), clients)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := over.Engine().Space(), original.Engine().Space(); got != want || got.Bytes == 0 {
		t.Errorf("Space over InprocShard(ShardEngines) = %+v, the original's is %+v", got, want)
	}

	marker := []Item{27, 28, 29} // no record of the skewed collection holds all three
	expr := And(ExprOf(SubsetQuery(marker[:2])), ExprOf(SubsetQuery(marker[2:])))
	for name, ix := range map[string]*Index{"built": built, "over clients": over} {
		expect := func(stage string, want []uint32) {
			t.Helper()
			got, err := ix.Subset(marker)
			if err != nil || !slices.Equal(got, want) {
				t.Fatalf("%s: %s: Subset = %v, %v; want %v", name, stage, got, err, want)
			}
			got, err = ix.EvalExpr(expr)
			if err != nil || !slices.Equal(got, want) {
				t.Fatalf("%s: %s: EvalExpr = %v, %v; want %v", name, stage, got, err, want)
			}
		}
		expect("before", []uint32{})
		ix.ResetCacheStats()
		if _, err := ix.Subset([]Item{0}); err != nil {
			t.Fatal(err)
		}
		if st := ix.CacheStats(); st.Hits+st.PageReads == 0 {
			t.Errorf("%s: CacheStats empty after an engine-level query: %+v", name, st)
		}
		a, err := ix.Insert(marker)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ix.Insert(marker)
		if err != nil {
			t.Fatal(err)
		}
		expect("after Insert", []uint32{a, b})
		if err := ix.Delete(a); err != nil {
			t.Fatal(err)
		}
		expect("after Delete", []uint32{b})
		if err := ix.MergeDelta(); err != nil {
			t.Fatal(err)
		}
		expect("after MergeDelta", []uint32{b})
		if ix.PendingInserts() != 0 || ix.Deleted() != 1 || ix.NumRecords() != c.Len()+2 {
			t.Errorf("%s: after the merge: %d pending, %d deleted, %d records", name,
				ix.PendingInserts(), ix.Deleted(), ix.NumRecords())
		}
	}
}
