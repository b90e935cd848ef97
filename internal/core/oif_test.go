package core

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/naive"
	"repro/internal/sequence"
	"repro/internal/storage"
)

func paperFig1(t testing.TB) *dataset.Dataset {
	t.Helper()
	sets := [][]dataset.Item{
		{6, 1, 0, 3}, {0, 4, 1}, {5, 4, 0, 1}, {3, 1, 0}, {0, 1, 5, 2},
		{2, 0}, {3, 7}, {1, 0, 5}, {1, 2}, {9, 1, 6}, {0, 2, 1}, {8, 3},
		{0}, {0, 3}, {9, 2, 0}, {8, 2}, {0, 2, 7}, {3, 2},
	}
	d := dataset.New(10)
	for _, s := range sets {
		if _, err := d.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func buildSmall(t testing.TB, d *dataset.Dataset) *Index {
	t.Helper()
	ix, err := Build(d, Options{PageSize: 512, BlockPostings: 4})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func equalIDs(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMetadataPaperFig5 checks the metadata table against the paper's
// Fig. 5: a -> [1,12], b -> [13,14], c -> [15,16], d -> [17,18].
func TestMetadataPaperFig5(t *testing.T) {
	d := paperFig1(t)
	ix := buildSmall(t, d)
	want := []Region{
		{L: 1, U: 12, U1: 1},   // a: records 1..12; singleton {a} is id 1
		{L: 13, U: 14, U1: 12}, // b: no singleton
		{L: 15, U: 16, U1: 14}, // c
		{L: 17, U: 18, U1: 16}, // d
	}
	for rank, w := range want {
		got := ix.meta.Regions[rank]
		if got != w {
			t.Errorf("region[%d] = %+v, want %+v", rank, got, w)
		}
	}
	// Ranks beyond d never begin a record in this dataset... e (rank 5 via
	// item 4) does not, but f (rank 4 via item 5) does not either: every
	// record containing them also contains a more frequent item.
	for rank := 4; rank < 10; rank++ {
		if !ix.meta.Regions[rank].Empty() {
			t.Errorf("region[%d] = %+v, want empty", rank, ix.meta.Regions[rank])
		}
	}
	if ix.meta.EmptyUpper != 0 {
		t.Errorf("EmptyUpper = %d, want 0", ix.meta.EmptyUpper)
	}
}

// TestPaperSubsetExample: qs = {a,d} must return the original records
// 101, 104, 114 (positions 1, 4, 14).
func TestPaperSubsetExample(t *testing.T) {
	ix := buildSmall(t, paperFig1(t))
	got, err := ix.Subset([]dataset.Item{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(got, []uint32{1, 4, 14}) {
		t.Fatalf("Subset({a,d}) = %v, want [1 4 14]", got)
	}
}

// TestPaperSupersetExample: qs = {a,c} must return records 106 and 113.
func TestPaperSupersetExample(t *testing.T) {
	ix := buildSmall(t, paperFig1(t))
	got, err := ix.Superset([]dataset.Item{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(got, []uint32{6, 13}) {
		t.Fatalf("Superset({a,c}) = %v, want [6 13]", got)
	}
}

// TestPaperSupersetACF walks the paper's Fig. 6 query {a,c,f}.
func TestPaperSupersetACF(t *testing.T) {
	d := paperFig1(t)
	ix := buildSmall(t, d)
	got, err := ix.Superset([]dataset.Item{0, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	want := naive.Superset(d, []dataset.Item{0, 2, 5})
	if !equalIDs(got, want) {
		t.Fatalf("Superset({a,c,f}) = %v, want %v", got, want)
	}
}

func TestEqualityPaperData(t *testing.T) {
	d := paperFig1(t)
	ix := buildSmall(t, d)
	for i := 0; i < d.Len(); i++ {
		r := d.Record(i)
		got, err := ix.Equality(r.Set)
		if err != nil {
			t.Fatal(err)
		}
		want := naive.Equality(d, r.Set)
		if !equalIDs(got, want) {
			t.Fatalf("Equality(%v) = %v, want %v", r.Set, got, want)
		}
	}
}

func TestAllPredicatesAgainstNaiveRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		NumRecords: 4000, DomainSize: 60, MinLen: 1, MaxLen: 9, ZipfTheta: 0.9, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ix := buildSmall(t, d)
	for trial := 0; trial < 300; trial++ {
		k := 1 + rng.Intn(6)
		qs := make([]dataset.Item, k)
		for i := range qs {
			qs[i] = dataset.Item(rng.Intn(60))
		}
		got, err := ix.Subset(qs)
		if err != nil {
			t.Fatal(err)
		}
		if want := naive.Subset(d, qs); !equalIDs(got, want) {
			t.Fatalf("Subset(%v) = %v, want %v", qs, got, want)
		}
		got, err = ix.Equality(qs)
		if err != nil {
			t.Fatal(err)
		}
		if want := naive.Equality(d, qs); !equalIDs(got, want) {
			t.Fatalf("Equality(%v) = %v, want %v", qs, got, want)
		}
		got, err = ix.Superset(qs)
		if err != nil {
			t.Fatal(err)
		}
		if want := naive.Superset(d, qs); !equalIDs(got, want) {
			t.Fatalf("Superset(%v) = %v, want %v", qs, got, want)
		}
	}
}

// TestSkewedDatasetWithDuplicates drives the msweb twin shape: heavy skew
// plus exact duplicate records spanning block boundaries.
func TestSkewedDatasetWithDuplicates(t *testing.T) {
	d, err := dataset.GenerateMSWeb(dataset.MSWebConfig{BaseRecords: 500, Replicas: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(d, Options{PageSize: 512, BlockPostings: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 120; trial++ {
		r := d.Record(rng.Intn(d.Len()))
		if len(r.Set) == 0 {
			continue
		}
		got, err := ix.Equality(r.Set)
		if err != nil {
			t.Fatal(err)
		}
		want := naive.Equality(d, r.Set)
		if !equalIDs(got, want) {
			t.Fatalf("Equality(%v) = %v, want %v", r.Set, got, want)
		}
		if len(got) < 10 {
			t.Fatalf("replicated record has %d equality answers, want >= 10", len(got))
		}
		qs := r.Set[:1+rng.Intn(len(r.Set))]
		gotS, err := ix.Subset(qs)
		if err != nil {
			t.Fatal(err)
		}
		if want := naive.Subset(d, qs); !equalIDs(gotS, want) {
			t.Fatalf("Subset(%v) wrong", qs)
		}
	}
}

func TestEmptySetRecords(t *testing.T) {
	d := dataset.New(5)
	d.Add([]dataset.Item{0, 1})
	d.Add(nil)
	d.Add([]dataset.Item{2})
	d.Add(nil)
	ix := buildSmall(t, d)
	if ix.meta.EmptyUpper != 2 {
		t.Fatalf("EmptyUpper = %d, want 2 (two empty records)", ix.meta.EmptyUpper)
	}
	sup, err := ix.Superset([]dataset.Item{2})
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(sup, []uint32{2, 3, 4}) {
		t.Fatalf("Superset({2}) = %v, want empty records 2,4 plus record 3", sup)
	}
	eq, err := ix.Equality(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(eq, []uint32{2, 4}) {
		t.Fatalf("Equality(∅) = %v", eq)
	}
	sub, err := ix.Subset(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 4 {
		t.Fatalf("Subset(∅) = %v, want all 4", sub)
	}
}

func TestSingleItemQueries(t *testing.T) {
	d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		NumRecords: 2000, DomainSize: 40, MinLen: 1, MaxLen: 8, ZipfTheta: 1.0, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	ix := buildSmall(t, d)
	for it := dataset.Item(0); it < 40; it++ {
		qs := []dataset.Item{it}
		got, err := ix.Subset(qs)
		if err != nil {
			t.Fatal(err)
		}
		if want := naive.Subset(d, qs); !equalIDs(got, want) {
			t.Fatalf("Subset({%d}) = %d ids, want %d", it, len(got), len(want))
		}
		got, err = ix.Equality(qs)
		if err != nil {
			t.Fatal(err)
		}
		if want := naive.Equality(d, qs); !equalIDs(got, want) {
			t.Fatalf("Equality({%d}) = %v, want %v", it, got, want)
		}
		got, err = ix.Superset(qs)
		if err != nil {
			t.Fatal(err)
		}
		if want := naive.Superset(d, qs); !equalIDs(got, want) {
			t.Fatalf("Superset({%d}) = %v, want %v", it, got, want)
		}
	}
}

func TestQueryValidationAndDuplicates(t *testing.T) {
	ix := buildSmall(t, paperFig1(t))
	if _, err := ix.Subset([]dataset.Item{99}); err == nil {
		t.Error("out-of-domain item accepted")
	}
	a, err := ix.Subset([]dataset.Item{3, 0, 3, 0})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ix.Subset([]dataset.Item{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(a, b) {
		t.Error("duplicate/unsorted query items changed the answer")
	}
}

// TestEqualityIsCheapInPages verifies §4.2's complexity claim: an
// equality query touches O(|qs| * height) pages regardless of list size,
// while the IF-style full-list read would be far larger.
func TestEqualityIsCheapInPages(t *testing.T) {
	d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		NumRecords: 30000, DomainSize: 50, MinLen: 2, MaxLen: 8, ZipfTheta: 0.9, Seed: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(d, Options{PageSize: 4096, BlockPostings: 64})
	if err != nil {
		t.Fatal(err)
	}
	small := storage.NewBufferPool(ix.Pool().Pager(), storage.DefaultPoolPages)
	if err := ix.SetPool(small); err != nil {
		t.Fatal(err)
	}
	r := d.Record(1234)
	small.ResetStats()
	if _, err := ix.Equality(r.Set); err != nil {
		t.Fatal(err)
	}
	misses := small.Stats().Misses
	// Generous bound: |qs| point lookups of a 3-level tree plus slack.
	bound := int64(len(r.Set)*6 + 8)
	if misses > bound {
		t.Fatalf("equality query cost %d page accesses, want <= %d", misses, bound)
	}
}

// TestSubsetPrunesVersusFullScan verifies the core OIF claim: a selective
// subset query reads far fewer pages than the total size of the involved
// lists.
func TestSubsetPrunesVersusFullScan(t *testing.T) {
	d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		NumRecords: 30000, DomainSize: 500, MinLen: 2, MaxLen: 12, ZipfTheta: 0.9, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(d, Options{PageSize: 4096, BlockPostings: 64})
	if err != nil {
		t.Fatal(err)
	}
	small := storage.NewBufferPool(ix.Pool().Pager(), storage.DefaultPoolPages)
	if err := ix.SetPool(small); err != nil {
		t.Fatal(err)
	}
	// A 4-item query from an existing record with a rare item: highly
	// selective, so the RoI should prune hard.
	var qs []dataset.Item
	for i := 0; i < d.Len(); i++ {
		r := d.Record(i)
		if len(r.Set) >= 4 {
			rare := false
			for _, it := range r.Set {
				if r, _ := ix.ord.Rank(it); r > 400 {
					rare = true
				}
			}
			if rare {
				qs = r.Set[:4]
				break
			}
		}
	}
	if qs == nil {
		t.Skip("no suitable record found")
	}
	small.ResetStats()
	got, err := ix.Subset(qs)
	if err != nil {
		t.Fatal(err)
	}
	want := naive.Subset(d, qs)
	if !equalIDs(got, want) {
		t.Fatalf("Subset(%v) = %v, want %v", qs, got, want)
	}
	misses := small.Stats().Misses
	treePages := ix.tree.Pool().Pager().NumPages()
	if misses*4 > treePages {
		t.Fatalf("subset query read %d of %d pages; RoI pruning not effective", misses, treePages)
	}
}

func TestInsertDeltaAndMerge(t *testing.T) {
	d := paperFig1(t)
	ix := buildSmall(t, d)
	id, err := ix.Insert([]dataset.Item{0, 3}) // {a,d}
	if err != nil {
		t.Fatal(err)
	}
	if id != 19 {
		t.Fatalf("inserted id = %d, want 19", id)
	}
	got, err := ix.Subset([]dataset.Item{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(got, []uint32{1, 4, 14, 19}) {
		t.Fatalf("Subset after insert = %v", got)
	}
	if err := ix.MergeDelta(); err != nil {
		t.Fatal(err)
	}
	if ix.DeltaLen() != 0 || ix.NumRecords() != 19 {
		t.Fatalf("after merge: delta %d, records %d", ix.DeltaLen(), ix.NumRecords())
	}
	got, err = ix.Subset([]dataset.Item{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(got, []uint32{1, 4, 14, 19}) {
		t.Fatalf("Subset after merge = %v", got)
	}
}

func TestMergeDeltaMatchesFreshBuild(t *testing.T) {
	base, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		NumRecords: 800, DomainSize: 40, MinLen: 1, MaxLen: 8, ZipfTheta: 0.7, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	extra, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		NumRecords: 200, DomainSize: 40, MinLen: 1, MaxLen: 8, ZipfTheta: 0.7, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	ix := buildSmall(t, base)
	merged := dataset.New(40)
	for _, r := range base.Records() {
		merged.Add(r.Set)
	}
	for _, r := range extra.Records() {
		if _, err := ix.Insert(r.Set); err != nil {
			t.Fatal(err)
		}
		merged.Add(r.Set)
	}
	if err := ix.MergeDelta(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 150; trial++ {
		k := 1 + rng.Intn(4)
		qs := make([]dataset.Item, k)
		for i := range qs {
			qs[i] = dataset.Item(rng.Intn(40))
		}
		got, err := ix.Subset(qs)
		if err != nil {
			t.Fatal(err)
		}
		if want := naive.Subset(merged, qs); !equalIDs(got, want) {
			t.Fatalf("post-merge Subset(%v) = %v, want %v", qs, got, want)
		}
		got, err = ix.Superset(qs)
		if err != nil {
			t.Fatal(err)
		}
		if want := naive.Superset(merged, qs); !equalIDs(got, want) {
			t.Fatalf("post-merge Superset(%v) = %v, want %v", qs, got, want)
		}
		got, err = ix.Equality(qs)
		if err != nil {
			t.Fatal(err)
		}
		if want := naive.Equality(merged, qs); !equalIDs(got, want) {
			t.Fatalf("post-merge Equality(%v) = %v, want %v", qs, got, want)
		}
	}
}

func TestSpaceStats(t *testing.T) {
	d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		NumRecords: 2000, DomainSize: 100, MinLen: 2, MaxLen: 10, ZipfTheta: 0.8, Seed: 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	ix := buildSmall(t, d)
	s := ix.Space()
	if s.Blocks == 0 || s.PostingBytes == 0 || s.KeyBytes == 0 {
		t.Fatalf("space stats empty: %+v", s)
	}
	if s.TreeBytes != s.TreePages*512 {
		t.Fatalf("TreeBytes inconsistent: %+v", s)
	}
	st := d.ComputeStats()
	// Metadata saves one posting per non-empty record: stored postings
	// must equal total postings minus number of non-empty records.
	var stored int64
	for _, c := range ix.listPostings {
		stored += c
	}
	wantStored := st.TotalPostings - int64(st.NumRecords-st.EmptyRecords)
	if stored != wantStored {
		t.Fatalf("stored postings = %d, want %d (metadata must absorb one per record)", stored, wantStored)
	}
}

// TestMetadataRegionInvariants checks Theorem 1 on generated data: the
// regions partition the non-empty id space contiguously in rank order.
func TestMetadataRegionInvariants(t *testing.T) {
	d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		NumRecords: 3000, DomainSize: 50, MinLen: 1, MaxLen: 6, ZipfTheta: 0.8, Seed: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	ix := buildSmall(t, d)
	forms := reorderedForms(t, d)
	next := ix.meta.EmptyUpper + 1
	for rank := 0; rank < 50; rank++ {
		reg := ix.meta.Regions[rank]
		if reg.Empty() {
			continue
		}
		if reg.L != next {
			t.Fatalf("region[%d] starts at %d, want %d (contiguity)", rank, reg.L, next)
		}
		if reg.U < reg.L || reg.U1 > reg.U || reg.U1 < reg.L-1 {
			t.Fatalf("region[%d] malformed: %+v", rank, reg)
		}
		// Every record in the region has this rank as smallest.
		for id := reg.L; id <= reg.U; id++ {
			sf := forms.SF(id)
			if len(sf) == 0 || sf[0] != sequence.Rank(rank) {
				t.Fatalf("record %d in region[%d] has sf %v", id, rank, sf)
			}
			if (len(sf) == 1) != (id <= reg.U1) {
				t.Fatalf("record %d cardinality-1 flag disagrees with U1=%d", id, reg.U1)
			}
		}
		next = reg.U + 1
	}
	if next != uint32(d.Len())+1 {
		t.Fatalf("regions cover up to %d, want %d", next-1, d.Len())
	}
}
