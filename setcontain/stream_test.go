package setcontain

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dataset"
)

// TestRestrictMatchesMaterializing holds restrict — every AND child
// after the first, and every NOT under it, answered at the accumulator's
// candidates — to the materializing evaluator, shape by shape, on an
// OIF (which offers the pushdown) and an inverted file (which does not).
// streamed pins how many leaves the pushdown answers where the backend
// offers it, so the gate is held and not just the answer: a hot
// accumulator must not stream a rare subtracted leaf. FuzzModel holds
// the streaming evaluator to the naive oracle. Items are Zipf-ranked: 0
// is the hottest, 35 among the rarest.
func TestRestrictMatchesMaterializing(t *testing.T) {
	cases := []struct {
		name, expr        string
		streamed, skipped int
	}{
		{"small acc and not subset", "subset{20 25} and not subset{0 1}", 1, 0},
		{"hot acc and not rare subset", "subset{0} and not subset{35}", 0, 0},
		{"not over or", "subset{10 12} and not (subset{0 1} or subset{2 3})", 2, 0},
		{"not over and", "subset{10 12} and not (subset{0} and subset{1 2})", 2, 0},
		{"and of nots only", "not subset{0} and not subset{1}", 1, 0},
		{"not over equality", "subset{3} and not equality{3 0}", 0, 0},
		{"not over superset", "subset{3} and not superset{0 1 3}", 0, 0},
		{"not empties acc", "subset{5 6} and not subset{5} and not subset{0 1}", 1, 1},
	}
	c := skewedCollection(t, 2000, 40, 1.0, 17)
	streaming := &Evaluator{}
	materializing := &Evaluator{materialize: true}
	for _, kind := range []Kind{OIF, InvertedFile} {
		ix, err := New(c, WithKind(kind), WithPageSize(512), WithBlockPostings(8))
		if err != nil {
			t.Fatal(err)
		}
		_, pushdown := backendOf(ix).(subsetWithiner)
		for _, tc := range cases {
			e, err := ParseExpr(tc.expr)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := PlanExpr(e, ix.Supports())
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := evalPlan(materializing, plan, ix)
			if err != nil {
				t.Fatalf("%v: %s: materializing: %v", kind, tc.name, err)
			}
			for _, evr := range []*Evaluator{streaming, materializing} {
				got, st, err := evalPlan(evr, plan, ix)
				if err != nil {
					t.Fatalf("%v: %s: %v", kind, tc.name, err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%v: %s (materialize=%v): got %d ids, materializing %d\nplan:\n%s",
						kind, tc.name, evr.materialize, len(got), len(want), plan)
				}
				wantStreamed := tc.streamed
				if evr.materialize || !pushdown {
					wantStreamed = 0
				}
				if st.StreamedLeaves != wantStreamed || st.SkippedLeaves != tc.skipped ||
					st.EvaluatedLeaves+st.SkippedLeaves != e.Leaves() {
					t.Fatalf("%v: %s (materialize=%v): %+v, want %d streamed, %d skipped of %d leaves\nplan:\n%s",
						kind, tc.name, evr.materialize, st, wantStreamed, tc.skipped, e.Leaves(), plan)
				}
			}
		}
	}
}

// TestEvaluatorStreamingMatchesMaterializing holds the streaming
// evaluator to the materializing one on random trees over every kind,
// with inserts pending and tombstones set on the kinds that take them.
// Both evaluators are reused across the trees, so their free lists are
// under test too.
func TestEvaluatorStreamingMatchesMaterializing(t *testing.T) {
	c := sampleCollection(t)
	idxs := buildAll(t, c)
	for _, kind := range []Kind{OIF, InvertedFile, Sharded} {
		for i := 0; i < 20; i++ {
			if _, err := idxs[kind].Insert([]Item{Item(i), Item((i*7 + 1) % 40)}); err != nil {
				t.Fatalf("%v: insert: %v", kind, err)
			}
			if err := idxs[kind].Delete(uint32(1 + i*97)); err != nil {
				t.Fatalf("%v: delete: %v", kind, err)
			}
		}
	}
	rng := rand.New(rand.NewSource(2024))
	streaming := &Evaluator{}
	materializing := &Evaluator{materialize: true}
	for trial := 0; trial < 60; trial++ {
		e := randExpr(rng, 3, 40)
		for _, kind := range AllKinds {
			plan, err := PlanExpr(e, idxs[kind].Supports())
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := evalPlan(streaming, plan, idxs[kind])
			want, _, werr := evalPlan(materializing, plan, idxs[kind])
			if err != nil || werr != nil || !slices.Equal(got, want) {
				t.Fatalf("%v: streaming %v, %v; materializing %v, %v\nplan:\n%s", kind, got, err, want, werr, plan)
			}
		}
	}
}

// TestStorePlanOrderTracksMerge is the Supports() cache regression test:
// a merge that flips two items' relative rarity must retire the cached
// profile, so plans built after the merge order their AND legs by the
// new supports, not the stale ones.
func TestStorePlanOrderTracksMerge(t *testing.T) {
	// Item 0 starts rarer than item 1: 10 vs 100 records.
	c := NewCollection(8)
	for i := 0; i < 10; i++ {
		if _, err := c.Add([]Item{0, 2}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if _, err := c.Add([]Item{1, 3}); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := Build(c, Options{Kind: OIF, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(ix, 0)
	e, err := ParseExpr("subset{1} and subset{0}")
	if err != nil {
		t.Fatal(err)
	}
	before := s.Supports()
	if before.Support(0) >= before.Support(1) {
		t.Fatalf("setup broken: support(0)=%d, support(1)=%d", before.Support(0), before.Support(1))
	}
	plan, err := PlanExpr(e, ix.Supports())
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Root.Kids[0].Leaf.String(); got != "subset{0}" {
		t.Fatalf("pre-merge first AND leg is %s, want subset{0}\nplan:\n%s", got, plan)
	}
	// Flip the rarity: 300 new records carry item 0, none carry item 1.
	for i := 0; i < 300; i++ {
		if _, err := ix.Insert([]Item{0, 4}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.MergeDelta(); err != nil {
		t.Fatal(err)
	}
	after := s.Supports()
	if after == before {
		t.Fatal("supports profile not refreshed after merge")
	}
	if after.Support(0) <= after.Support(1) {
		t.Fatalf("post-merge support(0)=%d not above support(1)=%d", after.Support(0), after.Support(1))
	}
	plan, err = PlanExpr(e, ix.Supports())
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Root.Kids[0].Leaf.String(); got != "subset{1}" {
		t.Fatalf("post-merge first AND leg is %s, want subset{1}\nplan:\n%s", got, plan)
	}
}

// BenchmarkExprStreamMaterializing is the baseline of the root package's
// BenchmarkExprStream: the same workload — a warm OIF over the §5
// synthetic data at 50 000 records, 64 planned ANDs of two hot subset
// leaves — through the materializing reference evaluator, which decodes
// the second leg's full list and intersects where the streaming one
// pushes the accumulator down as candidates. It lives here because the
// reference is not a public choice.
func BenchmarkExprStreamMaterializing(b *testing.B) {
	benchMaterializing(b, 43, func(rng *rand.Rand, hot []Item) *Expr {
		a := hot[rng.Intn(len(hot))]
		c := hot[rng.Intn(len(hot)/2)]
		return And(ExprOf(SubsetQuery([]Item{a})), ExprOf(SubsetQuery([]Item{c})))
	})
}

// BenchmarkExprStreamMaterializingAndNot is the baseline of
// BenchmarkExprStream/andnot: 64 planned {hot, companion} AND NOT
// {hot', companion'}, the subtracted leaf decoded whole and subtracted
// where the streaming evaluator checks it at the accumulator's ids.
func BenchmarkExprStreamMaterializingAndNot(b *testing.B) {
	benchMaterializing(b, 45, func(rng *rand.Rand, hot []Item) *Expr {
		leaf := func() *Expr {
			return ExprOf(SubsetQuery([]Item{hot[rng.Intn(10)], hot[10+rng.Intn(100)]}))
		}
		return And(leaf(), Not(leaf()))
	})
}

// benchMaterializing times the materializing evaluator over 64 plans of
// shape, drawn from seed over the top tenth of the items by support,
// most frequent first.
func benchMaterializing(b *testing.B, seed int64, shape func(rng *rand.Rand, hot []Item) *Expr) {
	d, err := dataset.GenerateSynthetic(dataset.DefaultSynthetic(50_000))
	if err != nil {
		b.Fatal(err)
	}
	idx, err := New(WrapDataset(d), WithKind(OIF), WithCachePages(4096))
	if err != nil {
		b.Fatal(err)
	}
	prof := idx.Supports()
	var hot []Item
	for it, n := range prof.PerItem {
		if n > 0 {
			hot = append(hot, Item(it))
		}
	}
	sort.Slice(hot, func(i, j int) bool { return prof.Support(hot[i]) > prof.Support(hot[j]) })
	hot = hot[:len(hot)/10+1]
	rng := rand.New(rand.NewSource(seed))
	plans := make([]*ExprPlan, 64)
	for i := range plans {
		if plans[i], err = PlanExpr(shape(rng, hot), prof); err != nil {
			b.Fatal(err)
		}
	}
	ev := &Evaluator{materialize: true}
	dst := make([]uint32, 0, 4096)
	for _, p := range plans { // warm-up: pages, free list, dst
		if dst, _, err = ev.EvalLimitAppend(dst[:0], p, idx, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, _, err = ev.EvalLimitAppend(dst[:0], plans[i%len(plans)], idx, 0); err != nil {
			b.Fatal(err)
		}
	}
}
