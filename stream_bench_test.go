package repro

// Streaming-execution benchmarks. BenchmarkExprStream runs the
// streaming evaluator (AND-leg candidate pushdown through a persistent
// free list).
// BenchmarkExprLimit measures a LIMIT on a warm OIF, where the root OR
// merges only the first ids of each leg.

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/setcontain"
)

// streamBenchIndex builds a warm index of the given kind over the
// shared synthetic scale and splits its domain into hot and cold items
// by support.
func streamBenchIndex(tb testing.TB, kind setcontain.Kind) (*setcontain.Index, []setcontain.Item, []setcontain.Item) {
	tb.Helper()
	cfg := benchCfg()
	d, err := dataset.GenerateSynthetic(cfg.SyntheticDefaults())
	if err != nil {
		tb.Fatal(err)
	}
	idx, err := setcontain.New(setcontain.WrapDataset(d),
		setcontain.WithKind(kind),
		setcontain.WithCachePages(hotPoolPages),
	)
	if err != nil {
		tb.Fatal(err)
	}
	prof := idx.Supports()
	var order []setcontain.Item
	for it, n := range prof.PerItem {
		if n > 0 {
			order = append(order, setcontain.Item(it))
		}
	}
	if len(order) < 8 {
		tb.Skip("domain too small at this scale")
	}
	sort.Slice(order, func(i, j int) bool { return prof.Support(order[i]) > prof.Support(order[j]) })
	return idx, order[:len(order)/10+1], order[len(order)*3/4:]
}

// exprStreamFixture is BenchmarkExprStream's workload: a warm OIF and
// 64 planned ANDs of two hot subset leaves.
func exprStreamFixture(tb testing.TB) (*setcontain.Index, []*setcontain.ExprPlan) {
	tb.Helper()
	idx, hot, _ := streamBenchIndex(tb, setcontain.OIF)
	rng := rand.New(rand.NewSource(43))
	plans := make([]*setcontain.ExprPlan, 64)
	prof := idx.Supports()
	var err error
	for i := range plans {
		a := hot[rng.Intn(len(hot))]
		c := hot[rng.Intn(len(hot)/2)]
		e := setcontain.And(
			setcontain.ExprOf(setcontain.SubsetQuery([]setcontain.Item{a})),
			setcontain.ExprOf(setcontain.SubsetQuery([]setcontain.Item{c})),
		)
		if plans[i], err = setcontain.PlanExpr(e, prof); err != nil {
			tb.Fatal(err)
		}
	}
	return idx, plans
}

// BenchmarkExprStream times the streaming evaluator on an AND workload
// whose second leg stays non-empty (a hot pair, not a cold triple), so
// the intersection is real work: the accumulator is pushed down as
// candidates and only those are confirmed, where the materializing
// reference decodes the second leg's full list and intersects (that
// baseline is BenchmarkExprStreamMaterializing in setcontain's own
// tests — the reference evaluator is not public). One evaluator and one
// answer buffer are reused — the steady state must allocate nothing
// (TestExprAllocCeilings holds it to that).
func BenchmarkExprStream(b *testing.B) {
	idx, plans := exprStreamFixture(b)
	var err error
	b.Run("streaming", func(b *testing.B) {
		var ev setcontain.Evaluator
		dst := make([]uint32, 0, 4096)
		// Warm-up: touch every page, grow the free list and dst to
		// their high-water marks.
		for _, p := range plans {
			if dst, _, err = ev.EvalLimitAppend(dst[:0], p, idx, 0); err != nil {
				b.Fatal(err)
			}
		}
		var streamed, evaluated int
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var st setcontain.ExprEvalStats
			if dst, st, err = ev.EvalLimitAppend(dst[:0], plans[i%len(plans)], idx, 0); err != nil {
				b.Fatal(err)
			}
			streamed += st.StreamedLeaves
			evaluated += st.EvaluatedLeaves
		}
		b.StopTimer()
		if evaluated > 0 {
			b.ReportMetric(float64(streamed)/float64(evaluated), "streamed-leaf-rate")
		}
	})
}

// exprLimitFixture is BenchmarkExprLimit's workload: a warm OIF — the
// engine the skewed data is put on — and 64 planned ORs of three hot
// subset leaves.
func exprLimitFixture(tb testing.TB) (*setcontain.Index, []*setcontain.ExprPlan) {
	tb.Helper()
	idx, hot, _ := streamBenchIndex(tb, setcontain.OIF)
	rng := rand.New(rand.NewSource(44))
	plans := make([]*setcontain.ExprPlan, 64)
	prof := idx.Supports()
	var err error
	for i := range plans {
		kids := make([]*setcontain.Expr, 3)
		for j := range kids {
			kids[j] = setcontain.ExprOf(setcontain.SubsetQuery(
				[]setcontain.Item{hot[rng.Intn(len(hot))]}))
		}
		if plans[i], err = setcontain.PlanExpr(setcontain.Or(kids...), prof); err != nil {
			tb.Fatal(err)
		}
	}
	return idx, plans
}

// BenchmarkExprLimit measures a LIMIT: an OR of hot subset leaves on a
// warm OIF, answered limited (every leaf answered in full, then only the
// first 10 ids of each leg merged) and unlimited (every leg merged
// whole). The limited/unlimited ratio is what the cut merge buys.
func BenchmarkExprLimit(b *testing.B) {
	idx, plans := exprLimitFixture(b)
	var err error
	var ev setcontain.Evaluator
	dst := make([]uint32, 0, 4096)
	for _, p := range plans {
		if dst, _, err = ev.EvalLimitAppend(dst[:0], p, idx, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("limit10", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if dst, _, err = ev.EvalLimitAppend(dst[:0], plans[i%len(plans)], idx, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if dst, _, err = ev.EvalLimitAppend(dst[:0], plans[i%len(plans)], idx, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
