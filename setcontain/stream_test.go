package setcontain

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dataset"
)

// withPendingMutations applies the same pending inserts and tombstones
// to every updatable kind, so the streaming paths face delta sweeps and
// tombstone masking, not just clean disk structures.
func withPendingMutations(t *testing.T, idxs map[Kind]*Index, c *Collection) {
	t.Helper()
	rng := rand.New(rand.NewSource(4321))
	var inserts [][]Item
	for i := 0; i < 20; i++ {
		inserts = append(inserts, []Item{Item(rng.Intn(40)), Item(rng.Intn(40))})
	}
	var deletes []uint32
	for i := 0; i < 30; i++ {
		deletes = append(deletes, uint32(1+rng.Intn(c.Len())))
	}
	for kind, ix := range idxs {
		if kind == UnorderedBTree {
			continue
		}
		for _, set := range inserts {
			if _, err := ix.Insert(set); err != nil {
				t.Fatalf("%v: insert: %v", kind, err)
			}
		}
		for _, id := range deletes {
			if err := ix.Delete(id); err != nil {
				t.Fatalf("%v: delete: %v", kind, err)
			}
		}
	}
}

// TestEvaluatorStreamingMatchesMaterializing is the tentpole's equality
// property: for random expressions, across every engine kind (pending
// deltas and tombstones included), the streaming evaluator — candidate
// pushdown into AND legs — returns ids byte-identical to the
// materializing evaluator and to the naive reference. Both evaluators are reused across trials so the free-list
// recycling path is under test too.
func TestEvaluatorStreamingMatchesMaterializing(t *testing.T) {
	c := sampleCollection(t)
	idxs := buildAll(t, c)
	withPendingMutations(t, idxs, c)
	rng := rand.New(rand.NewSource(2024))
	streaming := &Evaluator{}
	materializing := &Evaluator{materialize: true}
	for trial := 0; trial < 120; trial++ {
		e := randExpr(rng, 3, 40)
		for kind, ix := range idxs {
			plan, err := ix.PlanExpr(e)
			if err != nil {
				t.Fatalf("%v: plan %q: %v", kind, e, err)
			}
			want, err := e.Eval(ix)
			if err != nil {
				t.Fatalf("%v: naive %q: %v", kind, e, err)
			}
			got, _, err := evalPlan(streaming, plan, ix)
			if err != nil {
				t.Fatalf("%v: streaming %q: %v", kind, e, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: streaming %q: got %d ids, naive %d", kind, e, len(got), len(want))
			}
			mat, _, err := evalPlan(materializing, plan, ix)
			if err != nil {
				t.Fatalf("%v: materializing %q: %v", kind, e, err)
			}
			if !reflect.DeepEqual(mat, want) {
				t.Fatalf("%v: materializing %q: got %d ids, naive %d", kind, e, len(mat), len(want))
			}
		}
	}
}

// TestExprLimitFirstN pins the limit contract: a limited evaluation
// returns exactly the first n ids of the unlimited answer — never a
// different subset — for every engine kind, with pending deltas and
// tombstones, at every limit position (inside, at, and past the
// answer's end).
func TestExprLimitFirstN(t *testing.T) {
	c := sampleCollection(t)
	idxs := buildAll(t, c)
	withPendingMutations(t, idxs, c)
	rng := rand.New(rand.NewSource(9876))
	for trial := 0; trial < 80; trial++ {
		e := randExpr(rng, 3, 40)
		for kind, ix := range idxs {
			plan, err := ix.PlanExpr(e)
			if err != nil {
				t.Fatalf("%v: plan %q: %v", kind, e, err)
			}
			full, _, err := new(Evaluator).EvalLimitAppend(nil, plan, ix, 0)
			if err != nil {
				t.Fatalf("%v: full %q: %v", kind, e, err)
			}
			limits := []int{0, 1, 2, 7, len(full), len(full) + 5}
			for _, n := range limits {
				got, _, err := new(Evaluator).EvalLimitAppend(nil, plan, ix, n)
				if err != nil {
					t.Fatalf("%v: limit %d %q: %v", kind, n, e, err)
				}
				want := full
				if n > 0 && n < len(full) {
					want = full[:n]
				}
				if len(got) != len(want) {
					t.Fatalf("%v: limit %d %q: got %d ids, want %d", kind, n, e, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%v: limit %d %q: id[%d] = %d, want %d", kind, n, e, i, got[i], want[i])
					}
				}
			}
			// The Index convenience wrapper agrees.
			viaIdx, err := ix.EvalExprLimit(e, 3)
			if err != nil {
				t.Fatalf("%v: EvalExprLimit %q: %v", kind, e, err)
			}
			want := full
			if len(want) > 3 {
				want = want[:3]
			}
			if !reflect.DeepEqual(viaIdx, append([]uint32{}, want...)) && len(viaIdx)+len(want) > 0 {
				if len(viaIdx) != len(want) {
					t.Fatalf("%v: EvalExprLimit %q: got %d ids, want %d", kind, e, len(viaIdx), len(want))
				}
				for i := range want {
					if viaIdx[i] != want[i] {
						t.Fatalf("%v: EvalExprLimit %q diverges at %d", kind, e, i)
					}
				}
			}
		}
	}
}

// TestStoreExecExprLimit exercises the Store's limit surface: the
// sharded fan-out's per-shard limit pushdown stays first-n exact, a
// negative limit is refused with the sentinel, and limit 0 means
// unlimited.
func TestStoreExecExprLimit(t *testing.T) {
	c := sampleCollection(t)
	ctx := context.Background()
	e, err := ParseExpr("subset{1} or subset{2 3} or equality{4} or not superset{0 1 2 3 4 5 6 7 8 9}")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []Kind{OIF, InvertedFile, UnorderedBTree, Sharded} {
		ix, err := Build(c, Options{Kind: kind, PageSize: 512, BlockPostings: 8, Shards: 3})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		s := NewStore(ix, 0)
		full, err := s.ExecExprAppend(ctx, nil, e)
		if err != nil {
			t.Fatalf("%v: ExecExprAppend: %v", kind, err)
		}
		if len(full) == 0 {
			t.Fatalf("%v: workload answered no ids; test needs a wide answer", kind)
		}
		for _, n := range []int{0, 1, 5, len(full), len(full) + 9} {
			got, err := s.ExecExprLimitAppend(ctx, nil, e, n)
			if err != nil {
				t.Fatalf("%v: ExecExprLimitAppend(%d): %v", kind, n, err)
			}
			want := full
			if n > 0 && n < len(full) {
				want = full[:n]
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: ExecExprLimitAppend(%d): got %d ids, want %d", kind, n, len(got), len(want))
			}
		}
		if _, err := s.ExecExprLimitAppend(ctx, nil, e, -1); !errors.Is(err, ErrNegativeLimit) {
			t.Fatalf("%v: negative limit: %v, want ErrNegativeLimit", kind, err)
		}
		// One limit rule: the engine-level form refuses it too, for a
		// tree and for a one-leaf expression alike.
		for _, neg := range []*Expr{e, ExprOf(SubsetQuery([]Item{1}))} {
			if _, err := ix.EvalExprLimit(neg, -1); !errors.Is(err, ErrNegativeLimit) {
				t.Fatalf("%v: Index.EvalExprLimit(%s, -1): %v, want ErrNegativeLimit", kind, neg, err)
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
	plan, err := ix.PlanExpr(e)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Root.Kids[0].Leaf.String(); got != "subset{0}" {
		t.Fatalf("pre-merge first AND leg is %s, want subset{0}\nplan:\n%s", got, plan)
	}
	// Flip the rarity: 300 new records carry item 0, none carry item 1.
	if err := s.Update(func() error {
		for i := 0; i < 300; i++ {
			if _, err := ix.Insert([]Item{0, 4}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(ix.MergeDelta); err != nil {
		t.Fatal(err)
	}
	after := s.Supports()
	if after == before {
		t.Fatal("supports profile not refreshed after merge")
	}
	if after.Support(0) <= after.Support(1) {
		t.Fatalf("post-merge support(0)=%d not above support(1)=%d", after.Support(0), after.Support(1))
	}
	plan, err = ix.PlanExpr(e)
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
	rng := rand.New(rand.NewSource(43))
	plans := make([]*ExprPlan, 64)
	for i := range plans {
		a := hot[rng.Intn(len(hot))]
		c := hot[rng.Intn(len(hot)/2)]
		e := And(ExprOf(SubsetQuery([]Item{a})), ExprOf(SubsetQuery([]Item{c})))
		if plans[i], err = PlanExpr(e, prof); err != nil {
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
