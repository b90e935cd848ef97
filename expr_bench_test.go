package repro

// Expression-planner benchmarks: the cost-based rarest-first AND order
// against the written order, on the same skewed synthetic workload the
// hot-path benchmarks use. Every expression is written widest-leaf-first
// — a subset leaf on a hot item, then a subset leaf on three cold items
// whose conjunction is usually empty. The "naive" side is Expr.Eval: the
// same evaluator over a plan that keeps the written order and answers
// every leaf in full, so it pays the hot list every time while "planned"
// reorders and short-circuits it away. The planned/naive ratio is what
// the planner buys.

import (
	"math/rand"
	"testing"

	"repro/setcontain"
)

// exprBenchFixture builds the warm-cache index plus the adversarial
// AND workload, planned once against the index's support profile (the
// Store caches that profile per generation; planning per query would
// re-sort the domain every time and measure the wrong thing).
func exprBenchFixture(tb testing.TB) (*setcontain.Index, []*setcontain.Expr, []*setcontain.ExprPlan) {
	tb.Helper()
	idx, hot, cold := streamBenchIndex(tb, setcontain.OIF)
	prof := idx.Supports()
	var err error
	rng := rand.New(rand.NewSource(42))
	exprs := make([]*setcontain.Expr, 64)
	plans := make([]*setcontain.ExprPlan, len(exprs))
	for i := range exprs {
		wide := setcontain.ExprOf(setcontain.SubsetQuery(
			[]setcontain.Item{hot[rng.Intn(len(hot))]}))
		rare := setcontain.ExprOf(setcontain.SubsetQuery(
			[]setcontain.Item{
				cold[rng.Intn(len(cold))],
				cold[rng.Intn(len(cold))],
				cold[rng.Intn(len(cold))],
			}))
		exprs[i] = setcontain.And(wide, rare)
		if plans[i], err = setcontain.PlanExpr(exprs[i], prof); err != nil {
			tb.Fatal(err)
		}
	}
	return idx, exprs, plans
}

// BenchmarkExprPlanner measures planned vs written-order evaluation of
// the adversarial AND workload; the "planned" sub-benchmark also reports
// what fraction of leaves the short-circuit skipped.
func BenchmarkExprPlanner(b *testing.B) {
	idx, exprs, plans := exprBenchFixture(b)

	b.Run("planned", func(b *testing.B) {
		// Warm-up pass: load every touched page and grow the answer
		// buffer to its high-water mark.
		dst := make([]uint32, 0, 1024)
		var err error
		for _, p := range plans {
			var ev setcontain.Evaluator
			if dst, _, err = ev.EvalLimitAppend(dst[:0], p, idx, 0); err != nil {
				b.Fatal(err)
			}
		}
		var evaluated, skipped int
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var ev setcontain.Evaluator // cold: a fresh free list per op
			var st setcontain.ExprEvalStats
			if dst, st, err = ev.EvalLimitAppend(dst[:0], plans[i%len(plans)], idx, 0); err != nil {
				b.Fatal(err)
			}
			evaluated += st.EvaluatedLeaves
			skipped += st.SkippedLeaves
		}
		b.StopTimer()
		if total := evaluated + skipped; total > 0 {
			b.ReportMetric(float64(skipped)/float64(total), "skipped-leaf-rate")
		}
	})

	b.Run("naive", func(b *testing.B) {
		var err error
		for _, e := range exprs {
			if _, err = e.Eval(idx); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err = exprs[i%len(exprs)].Eval(idx); err != nil {
				b.Fatal(err)
			}
		}
	})
}
