package setcontain

import (
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
