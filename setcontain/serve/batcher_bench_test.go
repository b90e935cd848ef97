package serve_test

import (
	"context"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"repro/setcontain"
	"repro/setcontain/serve"
)

// saturatedOps draws BenchmarkBatcherSaturated's op pool: 60 plain
// leaves in the records' own skew and 40 ANDs, each pairing one of the
// three hottest subset leaves with one of those leaves — subtrees that
// concurrent queries share — shuffled together.
func saturatedOps(tb testing.TB, c *setcontain.Collection, idx *setcontain.Index) []*setcontain.Expr {
	tb.Helper()
	prof := idx.Supports()
	items := make([]setcontain.Item, len(prof.PerItem))
	for i := range items {
		items[i] = setcontain.Item(i)
	}
	sort.Slice(items, func(i, j int) bool { return prof.Support(items[i]) > prof.Support(items[j]) })
	hot := items[:3]
	qs := serveQueries(tb, c, 60)
	ops := make([]*setcontain.Expr, 0, 100)
	for _, q := range qs {
		ops = append(ops, setcontain.ExprOf(q))
	}
	for i := 0; i < 40; i++ {
		leaf := setcontain.ExprOf(setcontain.SubsetQuery([]setcontain.Item{hot[i%len(hot)]}))
		ops = append(ops, setcontain.And(leaf, setcontain.ExprOf(qs[i])))
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// BenchmarkBatcherSaturated drives DoExprLimit from 32 submitters per
// CPU over a warm OIF store, so queries always wait for an execution
// slot. Besides ns/op it reports mean_batch (queries per dispatch) and
// cse_hit_rate (the store's shared-subtree counters), the two numbers
// that say whether the serving layer shares any work across the
// queries it holds at once.
func BenchmarkBatcherSaturated(b *testing.B) {
	c, idx, _ := newTestStore(b, setcontain.WithKind(setcontain.OIF), setcontain.WithCachePages(2048))
	store := setcontain.NewStore(idx, 2048)
	ops := saturatedOps(b, c, idx)
	bt := serve.NewBatcher(store, serve.Config{MaxPending: 1024})
	defer bt.Close()
	ctx := context.Background()
	var dst []uint32
	var err error
	for _, e := range ops { // warm: pages, a pooled reader, its free list
		if dst, err = bt.DoExprLimit(ctx, dst[:0], e, 0); err != nil {
			b.Fatal(err)
		}
	}
	st0, ex0 := bt.Stats(), store.ExprStats()
	var next atomic.Int64
	b.SetParallelism(32)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		dst := make([]uint32, 0, 1024)
		for pb.Next() {
			e := ops[int(next.Add(1))%len(ops)]
			var err error
			if dst, err = bt.DoExprLimit(ctx, dst[:0], e, 0); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	st, ex := bt.Stats(), store.ExprStats()
	if batches := st.Batches - st0.Batches; batches > 0 {
		b.ReportMetric(float64(st.Queries-st0.Queries)/float64(batches), "mean_batch")
	}
	hits, misses := ex.CSEHits-ex0.CSEHits, ex.CSEMisses-ex0.CSEMisses
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	b.ReportMetric(rate, "cse_hit_rate")
}
