package setcontain

import (
	"errors"
	"math/rand"
	"testing"
)

func TestJoinAgainstOracle(t *testing.T) {
	// Outer: 200 small sets; inner: the sample collection.
	inner := sampleCollection(t)
	ix, err := Build(inner, Options{PageSize: 512, BlockPostings: 8})
	if err != nil {
		t.Fatal(err)
	}
	outer := NewCollection(40)
	rng := rand.New(rand.NewSource(82))
	for i := 0; i < 200; i++ {
		k := 1 + rng.Intn(3)
		set := make([]Item, k)
		for j := range set {
			set[j] = Item(rng.Intn(40))
		}
		if _, err := outer.Add(set); err != nil {
			t.Fatal(err)
		}
	}

	var pairs int
	err = ix.JoinInto(outer, PredicateSubset, func(outerID uint32, innerIDs []uint32) error {
		oSet, err := outer.Record(outerID)
		if err != nil {
			return err
		}
		want, err := ix.Subset(oSet)
		if err != nil {
			return err
		}
		if len(want) != len(innerIDs) {
			t.Fatalf("join row %d: %d ids, want %d", outerID, len(innerIDs), len(want))
		}
		pairs += len(innerIDs)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if pairs == 0 {
		t.Fatal("join produced no pairs")
	}

	// Error propagation from the sink.
	boom := errors.New("sink failed")
	err = ix.JoinInto(outer, PredicateSubset, func(uint32, []uint32) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("join error = %v, want sink error", err)
	}
	// Invalid predicate.
	if err := ix.JoinInto(outer, Predicate(9), func(uint32, []uint32) error { return nil }); !errors.Is(err, ErrUnknownPredicate) {
		t.Fatalf("bad predicate error = %v", err)
	}
}

func TestJoinEqualityFindsDuplicatesAcrossCollections(t *testing.T) {
	a := NewCollection(10)
	b := NewCollection(10)
	a.Add([]Item{1, 2})
	a.Add([]Item{3})
	b.Add([]Item{1, 2})
	b.Add([]Item{4, 5})
	b.Add([]Item{1, 2})
	ix, err := Build(b, Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	matches := map[uint32][]uint32{}
	if err := ix.JoinInto(a, PredicateEquality, func(o uint32, in []uint32) error {
		matches[o] = append([]uint32(nil), in...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || len(matches[1]) != 2 {
		t.Fatalf("equality join = %v, want outer 1 -> two inner ids", matches)
	}
}
