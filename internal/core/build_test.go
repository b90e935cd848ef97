package core

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sequence"
	"repro/internal/storage"
)

// mergeInput is a merge's worth of work on an index over base: the sets
// of pending inserted, then dead tombstones spread evenly over the ids
// of the base and the pending records.
type mergeInput struct {
	base, pending *dataset.Dataset
	dead          int
}

// deadIDs returns the ids in tombstones, ascending.
func (in mergeInput) deadIDs() []uint32 {
	total := in.base.Len() + in.pending.Len()
	ids := make([]uint32, in.dead)
	for j := range ids {
		ids[j] = uint32(1 + j*total/in.dead)
	}
	return ids
}

// apply inserts in.pending into ix, an index over in.base, and
// tombstones in.deadIDs.
func (in mergeInput) apply(tb testing.TB, ix *Index) {
	tb.Helper()
	for _, r := range in.pending.Records() {
		if _, err := ix.Insert(r.Set); err != nil {
			tb.Fatal(err)
		}
	}
	for _, id := range in.deadIDs() {
		if err := ix.Delete(id); err != nil {
			tb.Fatal(err)
		}
	}
}

// merged returns the records the merge folds in, in id order: the base
// records, then the pending ones, a tombstoned record as an empty set in
// its slot.
func (in mergeInput) merged(tb testing.TB) *dataset.Dataset {
	tb.Helper()
	out := dataset.New(in.base.DomainSize())
	dead := in.deadIDs()
	for _, d := range []*dataset.Dataset{in.base, in.pending} {
		for _, r := range d.Records() {
			set := r.Set
			if _, ok := slices.BinarySearch(dead, uint32(out.Len()+1)); ok {
				set = nil
			}
			if _, err := out.Add(set); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return out
}

// reorderedForms returns the sequence forms Build sorts for d, in new-id
// order: the index keeps none, so tests that read a record's form take
// it from the re-ordering of their own dataset.
func reorderedForms(tb testing.TB, d *dataset.Dataset) *sequence.Forms {
	tb.Helper()
	re, err := sequence.Reorder(d, sequence.OrderFromDataset(d), 1)
	if err != nil {
		tb.Fatal(err)
	}
	return re.Forms
}

// TestMergedIndexMatchesBuild holds a merged index byte for byte to a
// Build over the records the merge folds in: every page of the tree (so
// every block and key), the build's counters, the metadata table, the
// hot lists and the re-ordering's permutation — equal pages and an equal
// table fix the sequence forms too. Only the overlay differs: the merged
// index keeps its tombstones. One leg merges the index after a Save /
// Load round trip, whose snapshot holds no forms; every leg holds the
// pre-merge index's pool still, as the merge reads through scratch
// pools.
func TestMergedIndexMatchesBuild(t *testing.T) {
	base, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		NumRecords: 6000, DomainSize: 120, MinLen: 1, MaxLen: 12, ZipfTheta: 0.9, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	pending, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		NumRecords: 900, DomainSize: 120, MinLen: 1, MaxLen: 12, ZipfTheta: 0.9, Seed: 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := mergeInput{base: base, pending: pending, dead: 180}
	small := Options{BlockPostings: 5, TagPrefix: 2, PageSize: 1024}
	for _, leg := range []struct {
		opts  Options
		saved bool
	}{{Options{}, false}, {small, false}, {small, true}} {
		opts := leg.opts
		ix, err := Build(base, opts)
		if err != nil {
			t.Fatal(err)
		}
		in.apply(t, ix)
		if leg.saved {
			var buf bytes.Buffer
			if err := ix.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if ix, err = Load(&buf); err != nil {
				t.Fatal(err)
			}
		}
		pool := ix.Pool()
		stats := pool.Stats()
		if err := ix.MergeDelta(); err != nil {
			t.Fatal(err)
		}
		want, err := Build(in.merged(t), opts)
		if err != nil {
			t.Fatal(err)
		}
		name := func(what string) string { return fmt.Sprintf("%+v (saved %v): %s", opts, leg.saved, what) }
		if got := pool.Stats(); got != stats {
			t.Errorf("%s: %+v, was %+v", name("the pre-merge pool moved"), got, stats)
		}

		if got, w := ix.Pool().Pager().NumPages(), want.Pool().Pager().NumPages(); got != w {
			t.Fatalf("%s: %d, want %d", name("pages"), got, w)
		}
		size := ix.Pool().PageSize()
		gotPage, wantPage := make([]byte, size), make([]byte, size)
		for id := range want.Pool().Pager().NumPages() {
			if err := ix.Pool().Pager().ReadPage(storage.PageID(id), gotPage); err != nil {
				t.Fatal(err)
			}
			if err := want.Pool().Pager().ReadPage(storage.PageID(id), wantPage); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotPage, wantPage) {
				t.Fatalf("%s: page %d differs", name("pages"), id)
			}
		}
		if got, w := ix.Space(), want.Space(); got != w {
			t.Errorf("%s: %+v, want %+v", name("space"), got, w)
		}
		if !slices.Equal(ix.listPostings, want.listPostings) {
			t.Errorf("%s differ", name("list postings"))
		}
		if !reflect.DeepEqual(ix.meta, want.meta) {
			t.Errorf("%s differs", name("metadata"))
		}
		if !slices.Equal(ix.ord.Items(), want.ord.Items()) {
			t.Errorf("%s differs", name("item order"))
		}
		hot := 0
		for _, h := range want.hot {
			if h != nil {
				hot++
			}
		}
		if hot == 0 {
			t.Fatalf("%s: no hot list to compare", name("hot lists"))
		}
		if !reflect.DeepEqual(ix.hot, want.hot) {
			t.Errorf("%s differ", name("hot lists"))
		}
		if !slices.Equal(ix.ids.Perm(), want.ids.Perm()) {
			t.Errorf("%s differs", name("id map"))
		}
		if ix.numRecords != want.numRecords || ix.Deleted() == 0 || ix.DeltaLen() != 0 {
			t.Errorf("%s: %d records (want %d), %d tombstones, %d pending",
				name("merged"), ix.numRecords, want.numRecords, ix.Deleted(), ix.DeltaLen())
		}
	}
}

// BenchmarkMergeDelta times one §4.4 merge at durable_rw's size: the §5
// dataset at 200 000 records with 4 800 pending sets and 600 tombstones.
// Each iteration builds its index and applies the delta with the timer
// stopped, so time and allocations are the merge's alone.
func BenchmarkMergeDelta(b *testing.B) {
	base, err := dataset.GenerateSynthetic(dataset.DefaultSynthetic(200000))
	if err != nil {
		b.Fatal(err)
	}
	pc := dataset.DefaultSynthetic(4800)
	pc.Seed = 2
	pending, err := dataset.GenerateSynthetic(pc)
	if err != nil {
		b.Fatal(err)
	}
	in := mergeInput{base: base, pending: pending, dead: 600}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ix, err := Build(base, Options{})
		if err != nil {
			b.Fatal(err)
		}
		in.apply(b, ix)
		b.StartTimer()
		if err := ix.MergeDelta(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParallelBuildMatchesSerial holds a build on 2 and 7 workers byte
// for byte to one on a single worker: every page, the id map, the hot
// lists, the metadata and the counters, over buildCases' datasets.
func TestParallelBuildMatchesSerial(t *testing.T) {
	hot := 0
	for _, c := range buildCases(t) {
		t.Run(c.name, func(t *testing.T) {
			want, err := buildOn(c.d, c.opts, 1)
			if err != nil {
				t.Fatal(err)
			}
			if want.hot != nil {
				hot++
			}
			for _, workers := range []int{2, 7} {
				got, err := buildOn(c.d, c.opts, workers)
				if err != nil {
					t.Fatal(err)
				}
				sameIndex(t, fmt.Sprintf("%d workers", workers), got, want)
			}
		})
	}
	if hot == 0 {
		t.Fatal("no build has a hot list to compare")
	}
}

// buildCase is a dataset and the options to build it with.
type buildCase struct {
	name string
	d    *dataset.Dataset
	opts Options
}

// buildCases are datasets that cover a skewed domain with hot lists, a
// tiny domain with more workers than ranks, tag prefixes and small
// blocks, empty sets, and no records at all.
func buildCases(t testing.TB) []buildCase {
	synthetic := func(n, domain, minLen, maxLen int, theta float64) *dataset.Dataset {
		d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
			NumRecords: n, DomainSize: domain, MinLen: minLen, MaxLen: maxLen, ZipfTheta: theta, Seed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	withEmpties := dataset.New(50)
	for i, r := range synthetic(3000, 50, 1, 9, 1.1).Records() {
		set := r.Set
		if i%11 == 0 {
			set = nil
		}
		if _, err := withEmpties.Add(set); err != nil {
			t.Fatal(err)
		}
	}
	return []buildCase{
		{"synthetic", synthetic(20000, 2000, 2, 20, 0.8), Options{}},
		{"skewed/small blocks", synthetic(6000, 120, 1, 12, 0.9), Options{BlockPostings: 5, TagPrefix: 2, PageSize: 1024}},
		{"five items", synthetic(2000, 5, 1, 5, 0.5), Options{}},
		{"empty sets", withEmpties, Options{BlockPostings: 7}},
		{"no records", dataset.New(30), Options{}},
	}
}

// sameIndex fails t unless got and want hold the same pages, counters,
// metadata, order, hot lists and id map: equal pages and an equal table
// fix the sequence forms too.
func sameIndex(t *testing.T, name string, got, want *Index) {
	t.Helper()
	gp, wp := got.Pool().Pager(), want.Pool().Pager()
	if gp.NumPages() != wp.NumPages() {
		t.Fatalf("%s: %d pages, want %d", name, gp.NumPages(), wp.NumPages())
	}
	gotPage, wantPage := make([]byte, wp.PageSize()), make([]byte, wp.PageSize())
	for id := range wp.NumPages() {
		if err := gp.ReadPage(storage.PageID(id), gotPage); err != nil {
			t.Fatal(err)
		}
		if err := wp.ReadPage(storage.PageID(id), wantPage); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotPage, wantPage) {
			t.Fatalf("%s: page %d differs", name, id)
		}
	}
	if got.Space() != want.Space() || !slices.Equal(got.listPostings, want.listPostings) {
		t.Errorf("%s: space %+v, want %+v", name, got.Space(), want.Space())
	}
	if !reflect.DeepEqual(got.meta, want.meta) || !slices.Equal(got.ord.Items(), want.ord.Items()) {
		t.Errorf("%s: metadata or item order differs", name)
	}
	if !reflect.DeepEqual(got.hot, want.hot) {
		t.Errorf("%s: hot lists differ", name)
	}
	if !slices.Equal(got.ids.Perm(), want.ids.Perm()) {
		t.Errorf("%s: id maps differ", name)
	}
}

// BenchmarkBuild times Build of the §5 dataset at the benchmark's size
// (200 000 records, seed 1) on GOMAXPROCS workers: the support count,
// the §3 re-ordering, the list encoding and the bulk load.
func BenchmarkBuild(b *testing.B) {
	d, err := dataset.GenerateSynthetic(dataset.DefaultSynthetic(200000))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(d, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
