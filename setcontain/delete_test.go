package setcontain

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/dataset"
)

// deleteKinds are the engines with delete support.
var deleteKinds = []struct {
	name string
	opts []Option
}{
	{"OIF", []Option{WithKind(OIF), WithPageSize(512), WithBlockPostings(8)}},
	{"IF", []Option{WithKind(InvertedFile), WithPageSize(512)}},
	{"Sharded", []Option{WithKind(Sharded), WithShards(3), WithPageSize(512), WithBlockPostings(8)}},
}

// TestDeleteMasksImmediately: a deleted id vanishes from every
// predicate's answer before any merge, across all updatable kinds —
// including the empty-query forms that enumerate all records.
func TestDeleteMasksImmediately(t *testing.T) {
	const domain = 40
	c := skewedCollection(t, 800, domain, 0.8, 101)
	queries := append(zipfWorkload(80, domain, 0.8, 102),
		SubsetQuery(nil), SupersetQuery(nil), EqualityQuery(nil))
	for _, tc := range deleteKinds {
		t.Run(tc.name, func(t *testing.T) {
			ix, err := New(c, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			// Find a record that actually answers something, then kill it.
			pre, err := ix.Subset(nil)
			if err != nil {
				t.Fatal(err)
			}
			victims := []uint32{pre[0], pre[len(pre)/2], pre[len(pre)-1]}
			for _, v := range victims {
				if err := ix.Delete(v); err != nil {
					t.Fatalf("Delete(%d): %v", v, err)
				}
			}
			if got := ix.Deleted(); got != len(victims) {
				t.Fatalf("Deleted() = %d, want %d", got, len(victims))
			}
			assertAbsent := func(stage string) {
				t.Helper()
				for _, q := range queries {
					ids, err := ix.Eval(q)
					if err != nil {
						t.Fatalf("%s %s: %v", stage, q, err)
					}
					for _, v := range victims {
						if _, found := slices.BinarySearch(ids, v); found {
							t.Fatalf("%s: deleted id %d surfaced in %s", stage, v, q)
						}
					}
				}
			}
			assertAbsent("pre-merge")
			// Readers created after the delete inherit the tombstones.
			r, err := ix.NewReader(0)
			if err != nil {
				t.Fatal(err)
			}
			ids, err := r.Subset(nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range victims {
				if _, found := slices.BinarySearch(ids, v); found {
					t.Fatalf("deleted id %d surfaced through a reader", v)
				}
			}
			if err := ix.MergeDelta(); err != nil {
				t.Fatal(err)
			}
			assertAbsent("post-merge")
			if got := ix.Deleted(); got != len(victims) {
				t.Fatalf("Deleted() after merge = %d, want %d (ids stay tombstoned)", got, len(victims))
			}
		})
	}
}

// TestDeleteShrinksPostingsAndKindsAgree: after deleting a third of the
// records and merging, the persistent footprint of OIF and IF shrinks
// (the postings are physically gone, not just masked), and all three
// updatable kinds still answer identically.
func TestDeleteShrinksPostingsAndKindsAgree(t *testing.T) {
	const domain = 40
	c := skewedCollection(t, 1500, domain, 0.8, 111)
	idxs := make([]*Index, len(deleteKinds))
	for i, tc := range deleteKinds {
		ix, err := New(c, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		idxs[i] = ix
	}
	before := make([]int64, len(idxs))
	for i, ix := range idxs {
		before[i] = ix.Engine().Space().Bytes
	}
	for id := uint32(1); id <= 500; id++ {
		for i, ix := range idxs {
			if err := ix.Delete(id); err != nil {
				t.Fatalf("%s Delete(%d): %v", deleteKinds[i].name, id, err)
			}
		}
	}
	for i, ix := range idxs {
		if err := ix.MergeDelta(); err != nil {
			t.Fatalf("%s MergeDelta: %v", deleteKinds[i].name, err)
		}
		if after := ix.Engine().Space().Bytes; after >= before[i] {
			t.Errorf("%s: space %d -> %d after deleting a third; want physical shrink",
				deleteKinds[i].name, before[i], after)
		}
	}
	for _, q := range zipfWorkload(80, domain, 0.8, 112) {
		want, err := idxs[0].Eval(q)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(idxs); i++ {
			got, err := idxs[i].Eval(q)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) && !(len(got) == 0 && len(want) == 0) {
				t.Fatalf("%s: %s and %s diverge after deletes: %v vs %v",
					q, deleteKinds[0].name, deleteKinds[i].name, want, got)
			}
		}
	}
}

// TestDeleteDeltaRecordAndNoIDReuse: deleting a not-yet-merged insert
// masks it immediately, the merge drops its postings, and its id slot is
// never handed out again.
func TestDeleteDeltaRecordAndNoIDReuse(t *testing.T) {
	for _, tc := range deleteKinds {
		t.Run(tc.name, func(t *testing.T) {
			c := skewedCollection(t, 300, 30, 0.8, 121)
			ix, err := New(c, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			id, err := ix.Insert([]Item{3, 4, 5})
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.Delete(id); err != nil {
				t.Fatalf("Delete(delta %d): %v", id, err)
			}
			ids, err := ix.Equality([]Item{3, 4, 5})
			if err != nil {
				t.Fatal(err)
			}
			if _, found := slices.BinarySearch(ids, id); found {
				t.Fatalf("deleted delta record %d still answers", id)
			}
			next, err := ix.Insert([]Item{6, 7})
			if err != nil {
				t.Fatal(err)
			}
			if next == id {
				t.Fatalf("id %d reused after delete", id)
			}
			if err := ix.MergeDelta(); err != nil {
				t.Fatal(err)
			}
			ids, err = ix.Equality([]Item{3, 4, 5})
			if err != nil {
				t.Fatal(err)
			}
			if _, found := slices.BinarySearch(ids, id); found {
				t.Fatalf("deleted delta record %d resurfaced after merge", id)
			}
			if got, err := ix.Equality([]Item{6, 7}); err != nil || !slices.Contains(got, next) {
				t.Fatalf("surviving insert %d lost after merge: %v, %v", next, got, err)
			}
		})
	}
}

// TestDeleteValidation: unknown ids, double deletes, the typed
// out-of-domain refusal on every insert path (and the IF/UBT query
// paths, which share the canonicaliser), and the UBT ablation's
// capability error.
func TestDeleteValidation(t *testing.T) {
	c := sampleCollection(t)
	alien := []Item{1, Item(c.DomainSize())}
	if _, err := c.Add(alien); !errors.Is(err, dataset.ErrItemOutOfDomain) {
		t.Errorf("Collection.Add(out of domain): got %v, want ErrItemOutOfDomain", err)
	}
	for _, tc := range deleteKinds {
		ix, err := New(c, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ix.Insert(alien); !errors.Is(err, dataset.ErrItemOutOfDomain) {
			t.Errorf("%s: Insert(out of domain): got %v, want ErrItemOutOfDomain", tc.name, err)
		}
		if ix.PendingInserts() != 0 {
			t.Errorf("%s: refused insert left %d pending", tc.name, ix.PendingInserts())
		}
		if _, err := ix.Subset(alien); !errors.Is(err, dataset.ErrItemOutOfDomain) {
			t.Errorf("%s: Subset(out of domain): got %v, want ErrItemOutOfDomain", tc.name, err)
		}
		if err := ix.Delete(0); err == nil {
			t.Errorf("%s: Delete(0) succeeded", tc.name)
		}
		if err := ix.Delete(uint32(c.Len() + 1)); err == nil {
			t.Errorf("%s: Delete(out of range) succeeded", tc.name)
		}
		if err := ix.Delete(5); err != nil {
			t.Fatalf("%s: Delete(5): %v", tc.name, err)
		}
		if err := ix.Delete(5); err == nil {
			t.Errorf("%s: double Delete(5) succeeded", tc.name)
		}
	}
	ub, err := New(c, WithKind(UnorderedBTree), WithPageSize(512))
	if err != nil {
		t.Fatal(err)
	}
	if err := ub.Delete(1); !errors.Is(err, ErrNoUpdates) {
		t.Errorf("UBT Delete: got %v, want ErrNoUpdates", err)
	}
	if _, err := ub.Superset(alien); !errors.Is(err, dataset.ErrItemOutOfDomain) {
		t.Errorf("UBT Superset(out of domain): got %v, want ErrItemOutOfDomain", err)
	}
}

// TestStoreUpdateConcurrentWithQueries hammers a Store with queries
// while the index mutates through Store.Update — insert, delete, merge
// — from another goroutine. Under -race this is the regression test for
// two bugs: the IF merge mutating counters in place through arrays
// shared with live readers, and pooled-reader creation cloning the
// Index mid-mutation.
func TestStoreUpdateConcurrentWithQueries(t *testing.T) {
	const domain = 40
	queries := zipfWorkload(40, domain, 0.8, 141)
	for _, tc := range deleteKinds {
		t.Run(tc.name, func(t *testing.T) {
			c := skewedCollection(t, 600, domain, 0.8, 142)
			ix, err := New(c, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			store := NewStore(ix, 4)
			ctx := t.Context()
			stop := make(chan struct{})
			errc := make(chan error, 4)
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						if _, err := store.Exec(ctx, queries[(g+i)%len(queries)]); err != nil {
							errc <- fmt.Errorf("worker %d: %v", g, err)
							return
						}
					}
				}(g)
			}
			for round := 0; round < 15; round++ {
				var id uint32
				if err := store.Update(func() error {
					var err error
					id, err = ix.Insert([]Item{1, 2, Item(round % domain)})
					return err
				}); err != nil {
					t.Fatal(err)
				}
				if round%2 == 0 {
					if err := store.Update(func() error { return ix.Delete(id) }); err != nil {
						t.Fatal(err)
					}
				}
				if round%3 == 0 {
					if err := store.Update(ix.MergeDelta); err != nil {
						t.Fatal(err)
					}
				}
			}
			close(stop)
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Error(err)
			}
		})
	}
}

// TestCacheStatsCumulativeAcrossMerge: the satellite bugfix — MergeDelta
// used to zero CacheStats with the pool swap; it must now carry the
// pre-merge counters forward monotonically.
func TestCacheStatsCumulativeAcrossMerge(t *testing.T) {
	const domain = 40
	c := skewedCollection(t, 1200, domain, 0.9, 131)
	for _, tc := range deleteKinds[:2] { // OIF and IF own a single pool
		t.Run(tc.name, func(t *testing.T) {
			ix, err := New(c, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range zipfWorkload(60, domain, 0.9, 132) {
				if _, err := ix.Eval(q); err != nil {
					t.Fatal(err)
				}
			}
			preCache := ix.CacheStats()
			if preCache.PageReads == 0 {
				t.Fatal("warm-up recorded no page reads")
			}
			if _, err := ix.Insert([]Item{1, 2}); err != nil {
				t.Fatal(err)
			}
			if err := ix.Delete(3); err != nil {
				t.Fatal(err)
			}
			if err := ix.MergeDelta(); err != nil {
				t.Fatal(err)
			}
			postCache := ix.CacheStats()
			if postCache.PageReads < preCache.PageReads || postCache.Hits < preCache.Hits {
				t.Errorf("CacheStats went backwards across merge: %+v -> %+v", preCache, postCache)
			}
			// And they keep counting.
			for _, q := range zipfWorkload(20, domain, 0.9, 133) {
				if _, err := ix.Eval(q); err != nil {
					t.Fatal(err)
				}
			}
			if got := ix.CacheStats(); got.PageReads+got.Hits <= postCache.PageReads+postCache.Hits {
				t.Error("stats stopped accumulating after merge")
			}
		})
	}
}
