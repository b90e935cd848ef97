package setcontain

import (
	"fmt"
	"sync"
	"testing"
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

// TestDeleteShrinksPostings: after deleting a third of the records and
// merging, the persistent footprint of every updatable kind shrinks —
// the postings are physically gone, not just masked. (What they answer
// is FuzzModel's.)
func TestDeleteShrinksPostings(t *testing.T) {
	c := skewedCollection(t, 1500, 40, 0.8, 111)
	for _, tc := range deleteKinds {
		ix, err := New(c, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		before := ix.Engine().Space().Bytes
		for id := uint32(1); id <= 500; id++ {
			if err := ix.Delete(id); err != nil {
				t.Fatalf("%s Delete(%d): %v", tc.name, id, err)
			}
		}
		if err := ix.MergeDelta(); err != nil {
			t.Fatalf("%s MergeDelta: %v", tc.name, err)
		}
		if after := ix.Engine().Space().Bytes; after >= before {
			t.Errorf("%s: space %d -> %d after deleting a third; want physical shrink", tc.name, before, after)
		}
	}
}

// TestStoreUpdateConcurrentWithQueries hammers a Store with queries
// while the index mutates directly — insert, delete, merge — from
// another goroutine. Under -race this is the regression test for
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
				id, err := ix.Insert([]Item{1, 2, Item(round % domain)})
				if err != nil {
					t.Fatal(err)
				}
				if round%2 == 0 {
					if err := ix.Delete(id); err != nil {
						t.Fatal(err)
					}
				}
				if round%3 == 0 {
					if err := ix.MergeDelta(); err != nil {
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
				if _, err := q.Eval(ix); err != nil {
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
				if _, err := q.Eval(ix); err != nil {
					t.Fatal(err)
				}
			}
			if got := ix.CacheStats(); got.PageReads+got.Hits <= postCache.PageReads+postCache.Hits {
				t.Error("stats stopped accumulating after merge")
			}
		})
	}
}
