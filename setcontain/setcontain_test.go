package setcontain

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dataset"
)

func buildAll(t *testing.T, c *Collection) map[Kind]*Index {
	t.Helper()
	out := make(map[Kind]*Index)
	for _, k := range AllKinds {
		ix, err := Build(c, Options{Kind: k, PageSize: 512, BlockPostings: 8, Shards: 3})
		if err != nil {
			t.Fatalf("Build(%v): %v", k, err)
		}
		out[k] = ix
	}
	return out
}

func sampleCollection(t *testing.T) *Collection {
	t.Helper()
	c := NewCollection(40)
	rng := rand.New(rand.NewSource(71))
	for i := 0; i < 2000; i++ {
		k := 1 + rng.Intn(7)
		set := make([]Item, k)
		for j := range set {
			set[j] = Item(rng.Intn(40))
		}
		if _, err := c.Add(set); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestAllKindsAgree(t *testing.T) {
	c := sampleCollection(t)
	idxs := buildAll(t, c)
	preds := []string{"subset", "equality", "superset"}
	eval := func(ix *Index, pred string, qs []Item) ([]uint32, error) {
		switch pred {
		case "subset":
			return ix.Subset(qs)
		case "equality":
			return ix.Equality(qs)
		default:
			return ix.Superset(qs)
		}
	}
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(5)
		qs := make([]Item, k)
		for i := range qs {
			qs[i] = Item(rng.Intn(40))
		}
		type result struct {
			name string
			ids  []uint32
		}
		for _, pred := range preds {
			var results []result
			for kind, ix := range idxs {
				ids, err := eval(ix, pred, qs)
				if err != nil {
					t.Fatalf("%v %s: %v", kind, pred, err)
				}
				results = append(results, result{kind.String(), ids})
			}
			for i := 1; i < len(results); i++ {
				if len(results[i].ids) != len(results[0].ids) {
					t.Fatalf("%s(%v): %s got %d, %s got %d answers",
						pred, qs, results[0].name, len(results[0].ids),
						results[i].name, len(results[i].ids))
				}
				for j := range results[0].ids {
					if results[i].ids[j] != results[0].ids[j] {
						t.Fatalf("%s(%v): %s and %s diverge", pred, qs,
							results[0].name, results[i].name)
					}
				}
			}
		}
	}

	// The kinds also agree on refusing an item outside the vocabulary.
	alien := []Item{1, Item(c.DomainSize())}
	for kind, ix := range idxs {
		for _, pred := range preds {
			if _, err := eval(ix, pred, alien); !errors.Is(err, dataset.ErrItemOutOfDomain) {
				t.Errorf("%v %s(%v): got %v, want dataset.ErrItemOutOfDomain", kind, pred, alien, err)
			}
		}
	}
}

func TestCollectionBasics(t *testing.T) {
	c := NewCollection(10)
	id, err := c.Add([]Item{5, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 || c.Len() != 1 || c.DomainSize() != 10 {
		t.Fatalf("basics wrong: id=%d len=%d domain=%d", id, c.Len(), c.DomainSize())
	}
	set, err := c.Record(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 || set[0] != 2 || set[1] != 5 {
		t.Fatalf("Record(1) = %v", set)
	}
	if _, err := c.Record(0); err == nil {
		t.Fatal("Record(0) succeeded")
	}
	if _, err := c.Record(2); err == nil {
		t.Fatal("Record(2) succeeded")
	}
	if err := c.SetLabels([]string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}); err != nil {
		t.Fatal(err)
	}
	if c.Label(2) != "c" {
		t.Fatalf("Label(2) = %q", c.Label(2))
	}
}

func TestCollectionSerialization(t *testing.T) {
	c := sampleCollection(t)
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCollection(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != c.Len() || back.DomainSize() != c.DomainSize() {
		t.Fatal("round trip changed shape")
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, Options{}); err == nil {
		t.Fatal("nil collection accepted")
	}
	c := NewCollection(4)
	c.Add([]Item{0})
	if _, err := Build(c, Options{Kind: Kind(42)}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestDefaultsAreOIF(t *testing.T) {
	c := sampleCollection(t)
	ix, err := Build(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Kind() != OIF {
		t.Fatalf("default kind = %v", ix.Kind())
	}
	if OIF.String() != "OIF" || InvertedFile.String() != "IF" || UnorderedBTree.String() != "UBT" {
		t.Fatal("Kind strings wrong")
	}
	if Kind(42).String() == "" {
		t.Fatal("unknown kind string empty")
	}
}

func TestCacheStats(t *testing.T) {
	c := sampleCollection(t)
	ix, err := Build(c, Options{PageSize: 512, BlockPostings: 8})
	if err != nil {
		t.Fatal(err)
	}
	ix.ResetCacheStats()
	if _, err := ix.Subset([]Item{1, 2}); err != nil {
		t.Fatal(err)
	}
	st := ix.CacheStats()
	if st.PageReads == 0 {
		t.Fatal("no page reads recorded")
	}
	if st.PageReads != st.Sequential+st.Near+st.Random {
		t.Fatalf("classes do not sum: %+v", st)
	}
	ix.ResetCacheStats()
	if got := ix.CacheStats().PageReads; got != 0 {
		t.Fatalf("reset left %d reads", got)
	}
}

func TestInsertAndMergeAcrossKinds(t *testing.T) {
	c := sampleCollection(t)
	for _, kind := range []Kind{OIF, InvertedFile, Sharded} {
		ix, err := Build(c, Options{Kind: kind, PageSize: 512, BlockPostings: 8})
		if err != nil {
			t.Fatal(err)
		}
		id, err := ix.Insert([]Item{1, 3, 9})
		if err != nil {
			t.Fatalf("%v Insert: %v", kind, err)
		}
		if id != uint32(c.Len()+1) {
			t.Fatalf("%v insert id = %d", kind, id)
		}
		if ix.PendingInserts() != 1 {
			t.Fatalf("%v pending = %d", kind, ix.PendingInserts())
		}
		got, err := ix.Equality([]Item{1, 3, 9})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, g := range got {
			if g == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("%v: inserted record invisible before merge", kind)
		}
		if err := ix.MergeDelta(); err != nil {
			t.Fatalf("%v MergeDelta: %v", kind, err)
		}
		if ix.PendingInserts() != 0 {
			t.Fatalf("%v: delta not cleared", kind)
		}
		got, err = ix.Equality([]Item{1, 3, 9})
		if err != nil {
			t.Fatal(err)
		}
		found = false
		for _, g := range got {
			if g == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("%v: inserted record invisible after merge", kind)
		}
	}
	// The ablation kind refuses updates.
	ub, err := Build(c, Options{Kind: UnorderedBTree, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ub.Insert([]Item{1}); !errors.Is(err, ErrNoUpdates) {
		t.Fatalf("UBT Insert err = %v", err)
	}
	if err := ub.MergeDelta(); !errors.Is(err, ErrNoUpdates) {
		t.Fatalf("UBT MergeDelta err = %v", err)
	}
	if ub.PendingInserts() != 0 {
		t.Fatal("UBT pending != 0")
	}
}

func TestSaveLoadPublicAPI(t *testing.T) {
	c := sampleCollection(t)
	ix, err := Build(c, Options{PageSize: 512, BlockPostings: 8})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Open(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Kind() != OIF {
		t.Fatalf("loaded kind = %v", loaded.Kind())
	}
	qs := []Item{1, 7}
	a, err := ix.Subset(qs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Subset(qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("answers diverged after reload: %d vs %d", len(a), len(b))
	}
	// The inverted file snapshots through the same container format.
	inv, err := Build(c, Options{Kind: InvertedFile, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := inv.Save(&buf); err != nil {
		t.Fatalf("IF Save err = %v", err)
	}
	invBack, err := Open(&buf)
	if err != nil {
		t.Fatalf("IF Open err = %v", err)
	}
	if invBack.Kind() != InvertedFile {
		t.Fatalf("IF reload kind = %v", invBack.Kind())
	}
	// Garbage input fails cleanly.
	if _, err := Open(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("junk snapshot accepted")
	}
}

func TestReadersAcrossKindsConcurrently(t *testing.T) {
	c := sampleCollection(t)
	for _, kind := range []Kind{OIF, InvertedFile, UnorderedBTree, Sharded} {
		ix, err := Build(c, Options{Kind: kind, PageSize: 512, BlockPostings: 8})
		if err != nil {
			t.Fatal(err)
		}
		want, err := ix.Subset([]Item{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for g := 0; g < 4; g++ {
			r, err := ix.NewReader(0)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(r *Reader) {
				defer wg.Done()
				for i := 0; i < 30; i++ {
					got, err := r.Subset([]Item{1, 2})
					if err != nil {
						errs <- err
						return
					}
					if len(got) != len(want) {
						errs <- fmt.Errorf("reader diverged: %d vs %d", len(got), len(want))
						return
					}
				}
			}(r)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("%v: %v", kind, err)
		}
	}
}
