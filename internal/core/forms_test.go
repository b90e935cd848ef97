package core

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sequence"
)

// rebuiltForms returns ix's sequence forms as MergeDelta rebuilds them
// from the lists and the metadata table.
func rebuiltForms(tb testing.TB, ix *Index) *sequence.Forms {
	tb.Helper()
	f, err := ix.forms()
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// rebuiltParts returns the arena and offsets of ix's rebuilt forms and
// its id map's new-id -> source-position permutation: the parts a
// sequence.Reordered holds.
func rebuiltParts(tb testing.TB, ix *Index) (flat []sequence.Rank, off, perm []uint32) {
	tb.Helper()
	flat, off = rebuiltForms(tb, ix).Parts()
	return flat, off, ix.ids.Perm()
}

// TestFormsMatchBuild holds the forms rebuilt from an index's lists byte
// for byte to the arena and offsets sequence.Reorder gave its build, over
// buildCases' datasets; also on an index with pending inserts and
// tombstones before its merge (whose lists still hold the tombstoned
// records) and on that index after a Save / Load round trip, whose
// snapshot holds no forms. The rebuild reads through scratch pools: the
// index's pool sees no access.
func TestFormsMatchBuild(t *testing.T) {
	check := func(t *testing.T, ix *Index, d *dataset.Dataset) {
		t.Helper()
		re, err := sequence.Reorder(d, sequence.OrderFromDataset(d), 1)
		if err != nil {
			t.Fatal(err)
		}
		wantFlat, wantOff := re.Parts()
		stats := ix.Pool().Stats()
		flat, off := rebuiltForms(t, ix).Parts()
		if !slices.Equal(flat, wantFlat) || !slices.Equal(off, wantOff) {
			t.Fatalf("rebuilt forms (%d ranks, %d offsets) differ from the build's (%d, %d)",
				len(flat), len(off), len(wantFlat), len(wantOff))
		}
		if got := ix.Pool().Stats(); got != stats {
			t.Fatalf("the rebuild moved the index's pool: %+v, was %+v", got, stats)
		}
	}
	for _, c := range buildCases(t) {
		t.Run(c.name, func(t *testing.T) {
			ix, err := Build(c.d, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			check(t, ix, c.d)
		})
	}
	t.Run("tombstoned", func(t *testing.T) {
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
		ix, err := Build(base, Options{BlockPostings: 5})
		if err != nil {
			t.Fatal(err)
		}
		mergeInput{base: base, pending: pending, dead: 180}.apply(t, ix)
		check(t, ix, base)
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		check(t, loaded, base)
	})
}

// sectionIndex builds the §5 dataset at the benchmark's size (200 000
// records, seed 1).
func sectionIndex(b *testing.B) *Index {
	d, err := dataset.GenerateSynthetic(dataset.DefaultSynthetic(200000))
	if err != nil {
		b.Fatal(err)
	}
	ix, err := Build(d, Options{})
	if err != nil {
		b.Fatal(err)
	}
	return ix
}

// BenchmarkForms times the rebuild of the sequence forms from the lists
// of the §5 index at 200 000 records, on one worker as MergeDelta runs it.
func BenchmarkForms(b *testing.B) {
	ix := sectionIndex(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.forms(); err != nil {
			b.Fatal(err)
		}
	}
}
