package setcontain

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// evalPlan is the whole answer of p by evr in the plain form: a non-nil
// empty slice when nothing matched.
func evalPlan(evr *Evaluator, p *ExprPlan, t Queryable) ([]uint32, ExprEvalStats, error) {
	ids, st, err := evr.EvalLimitAppend(nil, p, t, 0)
	return orEmpty(ids), st, err
}

// refSet is the map-based set-algebra reference: leaf answers come from
// plain Query.Eval, combination from map operations — an implementation
// as unlike the planner's galloping slices as possible.
func refSet(t *testing.T, e *Expr, q Queryable, universe map[uint32]bool) map[uint32]bool {
	t.Helper()
	switch e.Op {
	case OpLeaf:
		ids, err := e.Leaf.Eval(q)
		if err != nil {
			t.Fatalf("leaf %v: %v", e.Leaf, err)
		}
		set := make(map[uint32]bool, len(ids))
		for _, id := range ids {
			set[id] = true
		}
		return set
	case OpNot:
		child := refSet(t, e.Kids[0], q, universe)
		out := make(map[uint32]bool)
		for id := range universe {
			if !child[id] {
				out[id] = true
			}
		}
		return out
	case OpAnd:
		out := refSet(t, e.Kids[0], q, universe)
		for _, k := range e.Kids[1:] {
			kid := refSet(t, k, q, universe)
			for id := range out {
				if !kid[id] {
					delete(out, id)
				}
			}
		}
		return out
	default: // OpOr
		out := make(map[uint32]bool)
		for _, k := range e.Kids {
			for id := range refSet(t, k, q, universe) {
				out[id] = true
			}
		}
		return out
	}
}

func sortedIDs(set map[uint32]bool) []uint32 {
	ids := make([]uint32, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestExprPlannedMatchesNaive is the property test of the tentpole:
// for random expressions, the planned answer, the naive left-to-right
// answer, and the map-based reference are byte-identical, across every
// engine kind, with unmerged inserts and tombstones pending on the
// kinds that support them.
func TestExprPlannedMatchesNaive(t *testing.T) {
	c := sampleCollection(t)
	idxs := buildAll(t, c)
	rng := rand.New(rand.NewSource(1234))
	// The same pending inserts and tombstones on every updatable kind
	// (drawn once — map iteration order must not skew the collections),
	// so the delta paths and tombstone masking are under test too.
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
	for trial := 0; trial < 120; trial++ {
		e := randExpr(rng, 3, 40)
		var first []uint32
		var firstKind Kind
		for kind, ix := range idxs {
			uniIDs, err := ix.Subset(nil)
			if err != nil {
				t.Fatalf("%v: universe: %v", kind, err)
			}
			universe := make(map[uint32]bool, len(uniIDs))
			for _, id := range uniIDs {
				universe[id] = true
			}
			want := sortedIDs(refSet(t, e, ix, universe))

			naive, err := e.Eval(ix)
			if err != nil {
				t.Fatalf("%v: naive %q: %v", kind, e, err)
			}
			plan, err := ix.PlanExpr(e)
			if err != nil {
				t.Fatalf("%v: plan %q: %v", kind, e, err)
			}
			planned, st, err := evalPlan(new(Evaluator), plan, ix)
			if err != nil {
				t.Fatalf("%v: planned %q: %v", kind, e, err)
			}
			if st.EvaluatedLeaves+st.SkippedLeaves != e.Leaves() {
				t.Fatalf("%v: %q: %d evaluated + %d skipped != %d leaves\nplan:\n%s",
					kind, e, st.EvaluatedLeaves, st.SkippedLeaves, e.Leaves(), plan)
			}
			if !reflect.DeepEqual(naive, want) {
				t.Fatalf("%v: naive %q: got %d ids, reference %d\nplan:\n%s",
					kind, e, len(naive), len(want), plan)
			}
			if !reflect.DeepEqual(planned, want) {
				t.Fatalf("%v: planned %q: got %d ids, reference %d\nplan:\n%s",
					kind, e, len(planned), len(want), plan)
			}
			// Cross-kind identity only holds among the kinds carrying
			// the same pending mutations (UBT is read-only).
			if kind == UnorderedBTree {
				continue
			}
			if first == nil {
				first, firstKind = planned, kind
			} else if !reflect.DeepEqual(planned, first) {
				t.Fatalf("%q: %v and %v diverge", e, firstKind, kind)
			}
		}
	}
}

// TestSetAlgebra holds the galloping slice operations to a map
// reference, including the lopsided inputs that trigger galloping.
func TestSetAlgebra(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randSet := func(n, max int) []uint32 {
		seen := make(map[uint32]bool)
		for len(seen) < n {
			seen[uint32(rng.Intn(max))] = true
		}
		return sortedIDs(seen)
	}
	sizes := []struct{ na, nb int }{
		{0, 0}, {0, 50}, {50, 0}, {1, 1}, {8, 8}, {100, 100},
		{3, 400}, {400, 3}, {1, 5000}, {5000, 1}, {64, 4096},
	}
	for _, sz := range sizes {
		for trial := 0; trial < 20; trial++ {
			a := randSet(sz.na, 8192)
			b := randSet(sz.nb, 8192)
			inA := make(map[uint32]bool, len(a))
			for _, v := range a {
				inA[v] = true
			}
			inB := make(map[uint32]bool, len(b))
			for _, v := range b {
				inB[v] = true
			}
			wantInter := make(map[uint32]bool)
			wantUnion := make(map[uint32]bool)
			wantDiff := make(map[uint32]bool)
			for v := range inA {
				if inB[v] {
					wantInter[v] = true
				} else {
					wantDiff[v] = true
				}
				wantUnion[v] = true
			}
			for v := range inB {
				wantUnion[v] = true
			}
			check := func(name string, got []uint32, want map[uint32]bool) {
				if len(got) == 0 && len(want) == 0 {
					return
				}
				if !reflect.DeepEqual(got, sortedIDs(want)) {
					t.Fatalf("%s(|a|=%d,|b|=%d): got %d ids, want %d",
						name, len(a), len(b), len(got), len(want))
				}
			}
			check("intersect", intersectInto(nil, a, b), wantInter)
			check("union", unionInto(nil, a, b), wantUnion)
			check("difference", differenceInto(nil, a, b), wantDiff)
		}
	}
}

// TestPlannerShortCircuit pins the planner's win: ANDing an impossible
// (out-of-domain, hence zero-cost) leaf with others runs only that leaf
// and skips the rest, while the naive baseline evaluates everything.
func TestPlannerShortCircuit(t *testing.T) {
	// Domain 50, but no record ever contains items 40-49: subset{40} is
	// an in-domain leaf with support 0 — the cheapest possible.
	c := NewCollection(50)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		set := []Item{Item(rng.Intn(40)), Item(rng.Intn(40)), Item(rng.Intn(40))}
		if _, err := c.Add(set); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := Build(c, Options{Kind: OIF, PageSize: 512, BlockPostings: 8})
	if err != nil {
		t.Fatal(err)
	}
	e, err := ParseExpr("subset{0} and subset{1} and subset{40}")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ix.PlanExpr(e)
	if err != nil {
		t.Fatal(err)
	}
	ids, st, err := evalPlan(new(Evaluator), plan, ix)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("impossible AND answered %d ids", len(ids))
	}
	if st.EvaluatedLeaves != 1 || st.SkippedLeaves != 2 {
		t.Fatalf("evaluated %d, skipped %d; want 1 evaluated, 2 skipped\nplan:\n%s",
			st.EvaluatedLeaves, st.SkippedLeaves, plan)
	}
	// The rarest leaf must have been ordered first.
	if got := plan.Root.Kids[0].Leaf.String(); got != "subset{40}" {
		t.Fatalf("first planned child is %s, want subset{40}\nplan:\n%s", got, plan)
	}
}

// TestErrUnknownPredicateUnified pins the satellite: every evaluation
// path returns the bare sentinel for an invalid predicate.
func TestErrUnknownPredicateUnified(t *testing.T) {
	c := sampleCollection(t)
	ix, err := Build(c, Options{Kind: OIF, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	inv, err := Build(c, Options{Kind: InvertedFile, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	bad := Query{Pred: Predicate(42), Items: []Item{1}}
	if _, err := bad.Eval(ix); err != ErrUnknownPredicate {
		t.Errorf("Eval: %v, want bare ErrUnknownPredicate", err)
	}
	// EvalAppend on both the append-capable path (OIF) and the
	// fallback path (inverted file) — the fallback used to double-wrap.
	if _, err := bad.EvalAppend(nil, ix); err != ErrUnknownPredicate {
		t.Errorf("EvalAppend(OIF): %v, want bare ErrUnknownPredicate", err)
	}
	if _, err := bad.EvalAppend(nil, inv.Engine()); err != ErrUnknownPredicate {
		t.Errorf("EvalAppend(fallback): %v, want bare ErrUnknownPredicate", err)
	}
	badExpr := And(ExprOf(bad), ExprOf(SubsetQuery(nil)))
	if _, err := ix.PlanExpr(badExpr); err != ErrUnknownPredicate {
		t.Errorf("PlanExpr: %v, want bare ErrUnknownPredicate", err)
	}
	if _, err := badExpr.Eval(ix); err != ErrUnknownPredicate {
		t.Errorf("Expr.Eval: %v, want bare ErrUnknownPredicate", err)
	}
	s := NewStore(ix, 0)
	if _, err := s.ExecExprAppend(context.Background(), nil, badExpr); !errors.Is(err, ErrUnknownPredicate) {
		t.Errorf("ExecExprAppend: %v, want ErrUnknownPredicate", err)
	}
	if _, err := s.ExecExprAppend(context.Background(), nil, nil); err == nil {
		t.Error("ExecExprAppend(nil expr): no error")
	}
}

// TestStoreExecExpr exercises the Store expression surface: planned
// answers match Index.EvalExpr, the one-leaf degenerate case routes
// like Exec, the sharded fan-out stays byte-identical, counters
// advance, and cancellation is honoured.
func TestStoreExecExpr(t *testing.T) {
	c := sampleCollection(t)
	ctx := context.Background()
	e, err := ParseExpr("subset{1 2} and not superset{0 1 2 3 4 5 6 7 8 9} or equality{3}")
	if err != nil {
		t.Fatal(err)
	}
	var want []uint32
	for _, kind := range []Kind{OIF, InvertedFile, Sharded} {
		ix, err := Build(c, Options{Kind: kind, PageSize: 512, BlockPostings: 8, Shards: 3})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		s := NewStore(ix, 0)
		got, err := s.ExecExprAppend(ctx, nil, e)
		if err != nil {
			t.Fatalf("%v: ExecExprAppend: %v", kind, err)
		}
		direct, err := ix.EvalExpr(e)
		if err != nil {
			t.Fatalf("%v: EvalExpr: %v", kind, err)
		}
		if !reflect.DeepEqual(got, direct) {
			t.Fatalf("%v: ExecExprAppend and EvalExpr diverge (%d vs %d ids)", kind, len(got), len(direct))
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: diverges from OIF (%d vs %d ids)", kind, len(got), len(want))
		}
		if st := s.ExprStats(); st.Expressions != 1 || st.EvaluatedLeaves == 0 {
			t.Fatalf("%v: ExprStats = %+v after one expression", kind, st)
		}

		// One-leaf degenerate case: same answer as Exec, not counted as
		// a planned expression (counters unchanged from before).
		preLeaf := s.ExprStats()
		leaf := ExprOf(SubsetQuery([]Item{1, 2}))
		viaExpr, err := s.ExecExprAppend(ctx, nil, leaf)
		if err != nil {
			t.Fatalf("%v: one-leaf ExecExprAppend: %v", kind, err)
		}
		viaExec, err := s.Exec(ctx, SubsetQuery([]Item{1, 2}))
		if err != nil {
			t.Fatalf("%v: Exec: %v", kind, err)
		}
		if !reflect.DeepEqual(viaExpr, viaExec) {
			t.Fatalf("%v: one-leaf expression diverges from Exec", kind)
		}
		if st := s.ExprStats(); st != preLeaf {
			t.Fatalf("%v: one-leaf expression counted as planned (%+v -> %+v)", kind, preLeaf, st)
		}

		// A cancelled context refuses evaluation.
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		if _, err := s.ExecExprAppend(cctx, nil, e); !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: cancelled ExecExprAppend: %v", kind, err)
		}
	}
}

// TestStoreSupportsRefresh pins the generation-keyed profile cache:
// mutations through Update retire the cached supports.
func TestStoreSupportsRefresh(t *testing.T) {
	c := sampleCollection(t)
	ix, err := Build(c, Options{Kind: OIF, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(ix, 0)
	before := s.Supports()
	if again := s.Supports(); again != before {
		t.Fatal("supports profile not cached across calls")
	}
	if err := s.Update(func() error { _, err := ix.Insert([]Item{1, 2}); return err }); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(ix.MergeDelta); err != nil {
		t.Fatal(err)
	}
	after := s.Supports()
	if after == before {
		t.Fatal("supports profile not refreshed after mutation")
	}
	if after.NumRecords != before.NumRecords+1 {
		t.Fatalf("refreshed NumRecords = %d, want %d", after.NumRecords, before.NumRecords+1)
	}
}
