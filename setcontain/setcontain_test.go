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

func TestCollectionBasics(t *testing.T) {
	c := NewCollection(10)
	id, err := c.Add([]Item{5, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 || c.Len() != 1 || c.DomainSize() != 10 {
		t.Fatalf("basics wrong: id=%d len=%d domain=%d", id, c.Len(), c.DomainSize())
	}
	if _, err := c.Add([]Item{1, 10}); !errors.Is(err, dataset.ErrItemOutOfDomain) || c.Len() != 1 {
		t.Fatalf("Add(out of domain): %v, %d records; want ErrItemOutOfDomain, 1", err, c.Len())
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
