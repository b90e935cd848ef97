package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/invfile"
	"repro/internal/storage"
	"repro/internal/ubtree"
	"repro/internal/workload"
)

// TestPinBalanceAllKinds holds every backend to the buffer pool's pin
// contract: each Get of a query is matched by a Put. Under the paper's
// 8-page pool, DropAll after every query must succeed, and it refuses
// while any frame is pinned.
func TestPinBalanceAllKinds(t *testing.T) {
	cfg := tinyConfig(new(bytes.Buffer))
	cfg.fill()
	d, err := dataset.GenerateSynthetic(cfg.SyntheticDefaults())
	if err != nil {
		t.Fatal(err)
	}
	pair, err := cfg.BuildPair(d)
	if err != nil {
		t.Fatal(err)
	}
	ub, err := cfg.BuildUnordered(d)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(d, 25)
	var queries []workload.Query
	for _, kind := range []workload.Kind{workload.Subset, workload.Equality, workload.Superset} {
		for _, size := range []int{2, 4, 8} {
			queries = append(queries, gen.Queries(kind, size, 25)...)
		}
	}
	for _, s := range []SystemIndex{{"IF", pair.IF}, {"OIF", pair.OIF}, {"UBT", ub}} {
		pool := s.Index.Pool()
		if pool.Capacity() != storage.DefaultPoolPages {
			t.Fatalf("%s pool holds %d pages, want %d", s.Name, pool.Capacity(), storage.DefaultPoolPages)
		}
		pool.ResetStats()
		for _, q := range queries {
			if _, err := runQuery(s.Index, q); err != nil {
				t.Fatalf("%s %v %v: %v", s.Name, q.Kind, q.Items, err)
			}
			if err := pool.DropAll(); err != nil {
				t.Fatalf("%s %v %v left a page pinned: %v", s.Name, q.Kind, q.Items, err)
			}
		}
		if pool.Stats().Misses == 0 {
			t.Fatalf("%s: %d queries read no page", s.Name, len(queries))
		}
	}
}

// TestBuildPagesPinned pins what the builders write: the page count of
// each build below, over one 20 000-record synthetic set, and a sha256
// over all its pages in id order, read from the pager directly rather
// than through a pool. The constants were recorded at the commit before
// the builders stopped writing through a buffer pool. A change that
// moves pages on purpose re-records them, and the diff names the builds
// that moved.
func TestBuildPagesPinned(t *testing.T) {
	sc := dataset.DefaultSynthetic(20000)
	sc.Seed = 7
	d, err := dataset.GenerateSynthetic(sc)
	if err != nil {
		t.Fatal(err)
	}
	// The delta MergeDelta folds in: 300 inserts copied from seeded
	// records, then 100 tombstones over merged and pending ids.
	rng := rand.New(rand.NewSource(7))
	var inserts [][]dataset.Item
	for range 300 {
		inserts = append(inserts, d.Record(rng.Intn(d.Len())).Set)
	}
	var deletes []uint32
	for seen := map[uint32]bool{}; len(deletes) < 100; {
		if id := uint32(1 + rng.Intn(d.Len()+len(inserts))); !seen[id] {
			seen[id] = true
			deletes = append(deletes, id)
		}
	}
	merge := func(ix interface {
		Insert([]dataset.Item) (uint32, error)
		Delete(uint32) error
		MergeDelta() error
	}) error {
		for _, set := range inserts {
			if _, err := ix.Insert(set); err != nil {
				return err
			}
		}
		for _, id := range deletes {
			if err := ix.Delete(id); err != nil {
				return err
			}
		}
		return ix.MergeDelta()
	}

	type paged interface{ Pool() *storage.BufferPool }
	for _, b := range []struct {
		name   string
		build  func() (paged, error)
		pages  int64
		sha256 string
	}{
		{"OIF 4 KB pages", func() (paged, error) { return core.Build(d, core.Options{}) },
			211, "2e66e92c0e52b13e3bd1f163eec926714371f8abbc4ba177c9e7b714ebbd5f61"},
		{"OIF 512 B pages", func() (paged, error) { return core.Build(d, core.Options{PageSize: 512}) },
			2509, "2612439d25900db0dc58de0dbedbcc574d642b26db03bca73f8bcf6f1b3c8588"},
		{"IF", func() (paged, error) { return invfile.Build(d, invfile.BuildOptions{}) },
			126, "c88d89ff83b03e1830833ecaec6d0f5877c41e98e45032c21cd24c708040718d"},
		{"UBT", func() (paged, error) { return ubtree.Build(d, ubtree.Options{}) },
			163, "fd47515f46e51ee06755a43653dee1857f7e332bf64f35b19a26fca4fd5ced97"},
		{"OIF after MergeDelta", func() (paged, error) {
			ix, err := core.Build(d, core.Options{})
			if err != nil {
				return nil, err
			}
			return ix, merge(ix)
		}, 213, "d9e05edbe10cb27739e550a872f4d623e433f87f1989688c379b71bae0dce483"},
		{"IF after MergeDelta", func() (paged, error) {
			ix, err := invfile.Build(d, invfile.BuildOptions{})
			if err != nil {
				return nil, err
			}
			return ix, merge(ix)
		}, 127, "1085875c52f0a3e5fc758b6d1f11baeb4799e328d1c930436abdeaab871fca64"},
	} {
		ix, err := b.build()
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		pager := ix.Pool().Pager()
		h := sha256.New()
		page := make([]byte, pager.PageSize())
		for id := storage.PageID(0); int64(id) < pager.NumPages(); id++ {
			if err := pager.ReadPage(id, page); err != nil {
				t.Fatalf("%s: page %d: %v", b.name, id, err)
			}
			h.Write(page)
		}
		if sum := hex.EncodeToString(h.Sum(nil)); pager.NumPages() != b.pages || sum != b.sha256 {
			t.Errorf("%s: %d pages, sha256 %s; want %d pages, sha256 %s",
				b.name, pager.NumPages(), sum, b.pages, b.sha256)
		}
	}
}
