package setcontain

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// evalPlan is the whole answer of p by evr in the plain form: a non-nil
// empty slice when nothing matched.
func evalPlan(evr *Evaluator, p *ExprPlan, t Queryable) ([]uint32, ExprEvalStats, error) {
	ids, st, err := evr.EvalLimitAppend(nil, p, t, 0)
	return orEmpty(ids), st, err
}

func sortedIDs(set map[uint32]bool) []uint32 {
	ids := make([]uint32, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
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

	// Ids of one side that face the other's last id — equal to it, just
	// below it, or past it — in each of the three regimes: b 16× a, a 16×
	// b, and the linear merge.
	evens := func(n int) []uint32 {
		s := make([]uint32, n)
		for i := range s {
			s[i] = uint32(2 * i)
		}
		return s
	}
	for _, c := range []struct{ a, b []uint32 }{
		{[]uint32{61, 62}, evens(32)},
		{[]uint32{62}, evens(32)},
		{[]uint32{62, 63}, evens(32)},
		{evens(32), []uint32{62}},
		{evens(32), []uint32{61, 62}},
		{evens(32), []uint32{0, 62}},
		{evens(5), []uint32{3, 6}},
		{[]uint32{5, 6, 7}, evens(4)},
	} {
		checkSetAlgebra(t, c.a, c.b)
	}
}

// mergeSets is the plain linear merge of ascending id slices a and b:
// a ∩ b, a ∪ b and a \ b.
func mergeSets(a, b []uint32) (inter, union, diff []uint32) {
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || i < len(a) && a[i] < b[j]:
			union, diff = append(union, a[i]), append(diff, a[i])
			i++
		case i == len(a) || b[j] < a[i]:
			union = append(union, b[j])
			j++
		default:
			inter, union = append(inter, a[i]), append(union, a[i])
			i++
			j++
		}
	}
	return inter, union, diff
}

// checkSetAlgebra holds intersectInto, unionInto and differenceInto on a
// and b to mergeSets, each appending to a dst that already holds an id.
func checkSetAlgebra(t *testing.T, a, b []uint32) {
	t.Helper()
	inter, union, diff := mergeSets(a, b)
	for _, op := range []struct {
		name string
		fn   func(dst, a, b []uint32) []uint32
		want []uint32
	}{
		{"intersect", intersectInto, inter},
		{"union", unionInto, union},
		{"difference", differenceInto, diff},
	} {
		got := op.fn([]uint32{1 << 31}, a, b)
		if got[0] != 1<<31 || !slices.Equal(got[1:], op.want) {
			t.Fatalf("%s(%v, %v) = %v, want %v after the dst prefix", op.name, a, b, got, op.want)
		}
	}
}

// FuzzSetAlgebra holds the three operations to mergeSets on id sets
// shaped by the input: na and nb ids over a span spread by gap, so the
// sizes reach all three regimes, and tie copying one side's last id
// into the other (or b's first into a) so lopsided inputs still
// meet at the edges.
func FuzzSetAlgebra(f *testing.F) {
	f.Add(uint16(2), uint16(32), uint8(1), uint8(1), int64(1))
	f.Add(uint16(40), uint16(2), uint8(0), uint8(2), int64(2))
	f.Add(uint16(7), uint16(9), uint8(3), uint8(3), int64(3))
	f.Add(uint16(1), uint16(3000), uint8(2), uint8(4), int64(4))
	f.Fuzz(func(t *testing.T, na, nb uint16, gap, tie uint8, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		span := (int(na%512)+int(nb%4096))*(1+int(gap%4)) + 1
		draw := func(n int) []uint32 {
			s := make([]uint32, n)
			for i := range s {
				s[i] = uint32(rng.Intn(span))
			}
			slices.Sort(s)
			return slices.Compact(s)
		}
		a, b := draw(int(na%512)), draw(int(nb%4096))
		if len(a) > 0 && len(b) > 0 {
			switch tie % 5 {
			case 1: // a holds b's last
				a = append(a, b[len(b)-1])
			case 2: // b holds a's last
				b = append(b, a[len(a)-1])
			case 3: // both end on the same id
				a, b = append(a, uint32(span)), append(b, uint32(span))
			case 4: // a holds b's first
				a = append(a, b[0])
			}
			slices.Sort(a)
			slices.Sort(b)
			a, b = slices.Compact(a), slices.Compact(b)
		}
		checkSetAlgebra(t, a, b)
	})
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
	plan, err := PlanExpr(e, ix.Supports())
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
	if _, err := PlanExpr(badExpr, ix.Supports()); err != ErrUnknownPredicate {
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

// TestStoreSupportsRefresh pins the generation-keyed profile cache:
// mutations of the Index retire the cached supports.
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
	if _, err := ix.Insert([]Item{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := ix.MergeDelta(); err != nil {
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
