package setcontain

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
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

	if got := ShardPlans(ix.Engine().Unwrap().([]Engine)[0]); got != nil {
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

// flakyEngine wraps a real Engine, failing Insert while armed — the
// injection harness for the routing-drift regression test.
type flakyEngine struct {
	Engine
	failInserts bool
}

var errInjected = errors.New("injected shard failure")

func (f *flakyEngine) Insert(set []Item) (uint32, error) {
	if f.failInserts {
		return 0, errInjected
	}
	return f.Engine.Insert(set)
}

// TestShardedInsertFailureKeepsRouting is the regression test for the
// round-robin counter bug: a failed shard Insert must not advance the
// partition counter, or every subsequent record lands on the wrong
// shard and the global-id ↔ shard mapping drifts. After the injected
// failure clears, inserts must resume with the exact ids and placement
// a never-failing engine produces.
func TestShardedInsertFailureKeepsRouting(t *testing.T) {
	const domain = 30
	c := skewedCollection(t, 300, domain, 0.8, 71)
	reference, err := New(c, WithKind(Sharded), WithShards(3), WithPageSize(512), WithBlockPostings(8))
	if err != nil {
		t.Fatal(err)
	}
	victim, err := New(c, WithKind(Sharded), WithShards(3), WithPageSize(512), WithBlockPostings(8))
	if err != nil {
		t.Fatal(err)
	}
	// Rewrap the victim's shards with the failure-injecting decorator.
	inner := victim.Engine().Unwrap().([]Engine)
	flaky := make([]*flakyEngine, len(inner))
	wrapped := make([]Engine, len(inner))
	for i, sh := range inner {
		flaky[i] = &flakyEngine{Engine: sh}
		wrapped[i] = flaky[i]
	}
	eng, err := EngineOf(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	victim = IndexOver(eng)

	insertBoth := func(set []Item) {
		t.Helper()
		want, err := reference.Insert(set)
		if err != nil {
			t.Fatal(err)
		}
		got, err := victim.Insert(set)
		if err != nil {
			t.Fatalf("victim insert: %v", err)
		}
		if got != want {
			t.Fatalf("insert id drifted after failure: got %d, want %d", got, want)
		}
	}
	insertBoth([]Item{1, 2})
	insertBoth([]Item{2, 3})

	// Arm every shard: the next victim insert fails wherever it routes.
	for _, f := range flaky {
		f.failInserts = true
	}
	for i := 0; i < 3; i++ {
		if _, err := victim.Insert([]Item{4, 5}); !errors.Is(err, errInjected) {
			t.Fatalf("armed insert %d: got %v, want injected failure", i, err)
		}
	}
	for _, f := range flaky {
		f.failInserts = false
	}

	// Routing must resume exactly where it left off.
	insertBoth([]Item{4, 5})
	insertBoth([]Item{5, 6})
	insertBoth([]Item{6, 7})

	for _, q := range zipfWorkload(60, domain, 0.8, 72) {
		want, err := reference.Eval(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := victim.Eval(q)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("%s: answers diverged after injected failure: %v vs %v", q, got, want)
		}
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
	shards, ok := eng.Unwrap().([]Engine)
	if !ok || len(shards) != 3 {
		t.Fatalf("Unwrap = %T (%d shards)", eng.Unwrap(), len(shards))
	}
	again, err := EngineOf(shards)
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
	if _, err := EngineOf([]Engine{}); err == nil {
		t.Error("EngineOf(empty shard slice) succeeded, want error")
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
