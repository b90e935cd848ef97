package core

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/storage"
)

// TestPageAccessesPinned holds the paper's metric still in tier-1: the
// page accesses of a fixed query pool under the §5 protocol (8-page
// pool, dropped before each pass), split the way the disk model charges
// them. The constants were recorded at the commit before the answer
// sort, the cursor's leaf copy and the tag decode were changed; a CPU
// change to the query path must leave every one of them where it is,
// because it must leave the sequence of BufferPool.Get / Put calls
// where it is. The within rows (AppendSubsetWithin, the other caller of
// filterByList and filterBySmallest) were recorded at the commit before
// the block kernels replaced the decode-then-match. The superset rows at
// |qs| 12, 16 and 20, where its candidate table admits and counts the
// most postings, were recorded at the commit before that table replaced
// the per-item merge and sweep.
func TestPageAccessesPinned(t *testing.T) {
	cfg := dataset.DefaultSynthetic(20000)
	cfg.Seed = 7
	d, err := dataset.GenerateSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool := storage.NewBufferPool(ix.Pool().Pager(), storage.DefaultPoolPages)
	if err := ix.SetPool(pool); err != nil {
		t.Fatal(err)
	}

	// 25 queries per size, each the first |qs| items of a seeded record
	// (so subset and equality have answers, like the paper's workload).
	rng := rand.New(rand.NewSource(11))
	queries := map[int][][]dataset.Item{}
	for _, size := range []int{2, 4, 8} {
		for len(queries[size]) < 25 {
			if set := d.Record(rng.Intn(d.Len())).Set; len(set) >= size {
				queries[size] = append(queries[size], set[:size])
			}
		}
	}

	// AppendSubsetWithin's candidates per query: a fixed seeded sample of
	// ids plus the answer of the query's first two items, ascending —
	// computed before the passes, so their reads are not counted.
	sample := map[uint32]bool{}
	for len(sample) < 200 {
		sample[uint32(1+rng.Intn(d.Len()))] = true
	}
	within := map[int][][]uint32{}
	for _, size := range []int{2, 4, 8} {
		for _, qs := range queries[size] {
			cands, err := ix.AppendSubset(nil, qs[:2])
			if err != nil {
				t.Fatal(err)
			}
			for id := range sample {
				if !slices.Contains(cands, id) {
					cands = append(cands, id)
				}
			}
			slices.Sort(cands)
			within[size] = append(within[size], cands)
		}
	}
	// Superset's larger sizes, drawn after the within sample so that the
	// rows above keep their queries.
	for _, size := range []int{12, 16, 20} {
		for len(queries[size]) < 25 {
			if set := d.Record(rng.Intn(d.Len())).Set; len(set) >= size {
				queries[size] = append(queries[size], set[:size])
			}
		}
	}
	var cands []uint32 // the within row's candidates for the query being run

	type pages = map[int]storage.AccessStats // by |qs|
	preds := []struct {
		name string
		eval func(dst []uint32, qs []dataset.Item) ([]uint32, error)
		want pages
	}{
		{"subset", ix.AppendSubset, pages{
			2: {Hits: 181, Misses: 69, SeqMisses: 38, NearMisses: 30, RandMisses: 1},
			4: {Hits: 572, Misses: 157, SeqMisses: 62, NearMisses: 94, RandMisses: 1},
			8: {Hits: 313, Misses: 243, SeqMisses: 18, NearMisses: 224, RandMisses: 1},
		}},
		{"equality", ix.AppendEquality, pages{
			2: {Hits: 57, Misses: 18, SeqMisses: 0, NearMisses: 17, RandMisses: 1},
			4: {Hits: 57, Misses: 41, SeqMisses: 5, NearMisses: 35, RandMisses: 1},
			8: {Hits: 68, Misses: 56, SeqMisses: 2, NearMisses: 53, RandMisses: 1},
		}},
		{"superset", ix.AppendSuperset, pages{
			2: {Hits: 57, Misses: 18, SeqMisses: 0, NearMisses: 17, RandMisses: 1},
			4: {Hits: 291, Misses: 131, SeqMisses: 43, NearMisses: 87, RandMisses: 1},
			8: {Hits: 951, Misses: 303, SeqMisses: 75, NearMisses: 227, RandMisses: 1},
			// Where the candidate table does its work.
			12: {Hits: 1671, Misses: 471, SeqMisses: 120, NearMisses: 350, RandMisses: 1},
			16: {Hits: 2206, Misses: 589, SeqMisses: 124, NearMisses: 464, RandMisses: 1},
			20: {Hits: 2797, Misses: 749, SeqMisses: 181, NearMisses: 567, RandMisses: 1},
		}},
		{"within", func(dst []uint32, qs []dataset.Item) ([]uint32, error) {
			return ix.AppendSubsetWithin(dst, qs, cands)
		}, pages{
			2: {Hits: 352, Misses: 75, SeqMisses: 43, NearMisses: 31, RandMisses: 1},
			4: {Hits: 781, Misses: 187, SeqMisses: 88, NearMisses: 98, RandMisses: 1},
			8: {Hits: 369, Misses: 246, SeqMisses: 23, NearMisses: 222, RandMisses: 1},
		}},
	}
	var dst []uint32
	for _, p := range preds {
		for _, size := range slices.Sorted(maps.Keys(p.want)) {
			if err := pool.DropAll(); err != nil {
				t.Fatal(err)
			}
			pool.ResetStats()
			for k, qs := range queries[size] {
				if k < len(within[size]) { // no within row past |qs| 8
					cands = within[size][k]
				}
				if dst, err = p.eval(dst[:0], qs); err != nil {
					t.Fatalf("%s %v: %v", p.name, qs, err)
				}
			}
			if got := pool.Stats(); got != p.want[size] {
				t.Errorf("%s |qs|=%d: page accesses %#v, want %#v", p.name, size, got, p.want[size])
			}
		}
	}
}
