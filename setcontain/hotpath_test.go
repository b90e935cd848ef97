package setcontain_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/setcontain"
)

// hotTestCollection builds a skewed synthetic collection big enough to
// exercise multi-block lists but quick to index in a unit test.
func hotTestCollection(t testing.TB) *setcontain.Collection {
	t.Helper()
	d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		NumRecords: 8000,
		DomainSize: 400,
		MinLen:     2,
		MaxLen:     16,
		ZipfTheta:  0.9,
		Seed:       11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return setcontain.WrapDataset(d)
}

// hotTestQueries draws a deterministic mixed workload whose items follow
// the records' own skew (sampling record sets, like the paper's query
// generator).
func hotTestQueries(t testing.TB, c *setcontain.Collection, count int) []setcontain.Query {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	preds := []setcontain.Predicate{
		setcontain.PredicateSubset,
		setcontain.PredicateEquality,
		setcontain.PredicateSuperset,
	}
	var qs []setcontain.Query
	for len(qs) < count {
		set, err := c.Record(uint32(1 + rng.Intn(c.Len())))
		if err != nil {
			t.Fatal(err)
		}
		if len(set) < 2 {
			continue
		}
		k := 2 + rng.Intn(len(set)-1)
		items := append([]setcontain.Item(nil), set...)
		rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		items = items[:k]
		qs = append(qs, setcontain.Query{Pred: preds[len(qs)%len(preds)], Items: items})
	}
	return qs
}

// hotOIF builds the warm-path fixture of the zero-allocation gates: an
// OIF whose cache holds the whole index, and a mixed workload over it.
func hotOIF(t *testing.T) (*setcontain.Index, []setcontain.Query) {
	t.Helper()
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	c := hotTestCollection(t)
	idx, err := setcontain.New(c,
		setcontain.WithKind(setcontain.OIF),
		setcontain.WithCachePages(2048),
	)
	if err != nil {
		t.Fatal(err)
	}
	return idx, hotTestQueries(t, c, 30)
}

// requireZeroAllocs warms run — every query twice, so page cache,
// arenas, and the answer buffer all reach their high-water marks — then
// requires each query's steady-state call to allocate nothing.
func requireZeroAllocs(t *testing.T, what string, queries []setcontain.Query,
	run func(dst []uint32, q setcontain.Query) ([]uint32, error)) {
	t.Helper()
	dst := make([]uint32, 0, 64)
	var err error
	for pass := 0; pass < 2; pass++ {
		for _, q := range queries {
			if dst, err = run(dst[:0], q); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, q := range queries {
		allocs := testing.AllocsPerRun(50, func() {
			var err error
			dst, err = run(dst[:0], q)
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: %.2f allocs per steady-state %s, want 0", q, allocs, what)
		}
	}
}

// TestStoreExecAppendZeroAllocs is the zero-allocation regression gate:
// steady-state Store.ExecAppend over a warm OIF store must not allocate
// for any of the three predicates.
func TestStoreExecAppendZeroAllocs(t *testing.T) {
	idx, queries := hotOIF(t)
	store := setcontain.NewStore(idx, 2048)
	ctx := context.Background()
	requireZeroAllocs(t, "ExecAppend", queries, func(dst []uint32, q setcontain.Query) ([]uint32, error) {
		return store.ExecAppend(ctx, dst, q)
	})

	// The same over an unmerged delta: one pending insert and one
	// tombstone put the overlay on every read's path.
	if _, err := store.InsertSets([][]setcontain.Item{queries[0].Items}); err != nil {
		t.Fatal(err)
	}
	if err := store.DeleteIDs([]uint32{1}); err != nil {
		t.Fatal(err)
	}
	requireZeroAllocs(t, "ExecAppend over a pending delta", queries, func(dst []uint32, q setcontain.Query) ([]uint32, error) {
		return store.ExecAppend(ctx, dst, q)
	})
}

// TestQueryEvalAppendZeroAllocs holds the one query primitive to the
// same standard one layer down: Query.EvalAppend unwraps an Index or a
// Reader to the OIF's append-form backend, so neither facade needs
// Append* methods of its own for a warm query to allocate nothing.
func TestQueryEvalAppendZeroAllocs(t *testing.T) {
	idx, queries := hotOIF(t)
	reader, err := idx.NewReader(2048)
	if err != nil {
		t.Fatal(err)
	}
	for name, target := range map[string]setcontain.Queryable{"Index": idx, "Reader": reader} {
		requireZeroAllocs(t, "Query.EvalAppend on the "+name, queries, func(dst []uint32, q setcontain.Query) ([]uint32, error) {
			return q.EvalAppend(dst, target)
		})
	}
}
