//go:build !race

package core

// Allocation ceilings on the build paths at 20 000 records: the §5
// generator, Build, and a §4.4 merge. Each once cost about two
// allocations per record (a set copy per record, a byte slice and a key
// per list block); now each allocates in chunks, and a ceiling far below
// the record count keeps it so. Built only without -race: the detector's
// instrumentation allocates.

import (
	"io"
	"runtime"
	"testing"

	"repro/internal/dataset"
)

func TestBuildAllocCeilings(t *testing.T) {
	cfg := dataset.DefaultSynthetic(20000)
	d, err := dataset.GenerateSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pc := dataset.DefaultSynthetic(480)
	pc.Seed = 2
	pending, err := dataset.GenerateSynthetic(pc)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dead := uint32(1)
	cases := []struct {
		name    string
		ceiling float64 // at 20 000 records; two per record before
		run     func() error
	}{
		{"GenerateSynthetic", 100, func() error {
			_, err := dataset.GenerateSynthetic(cfg)
			return err
		}},
		{"Build", 1000, func() error {
			_, err := Build(d, Options{})
			return err
		}},
		// A merge round: insert 480 sets, tombstone 60 records, merge;
		// AllocsPerRun runs it four times, over ids 1 to 19 120.
		// The overlay's inserts and tombstones are about half of it.
		{"MergeDelta", 6000, func() error {
			for _, r := range pending.Records() {
				if _, err := ix.Insert(r.Set); err != nil {
					return err
				}
			}
			for range 60 {
				if err := ix.Delete(dead); err != nil {
					return err
				}
				dead += 80
			}
			return ix.MergeDelta()
		}},
	}
	for _, c := range cases {
		var err error
		allocs := testing.AllocsPerRun(3, func() {
			if e := c.run(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if allocs > c.ceiling {
			t.Errorf("%s: %.0f allocations, ceiling %.0f", c.name, allocs, c.ceiling)
		}
	}
}

// TestSnapshotAllocCeilings holds Save of the §5 index at 50 000 records
// to a fixed number of bytes allocated, whatever the record count: Save
// streams the header, the id map, the counters, the overlay and the
// pages through buffers of its own, and builds nothing sized by the
// collection: 0.12 MB here. Rebuilding the sequence forms on the way
// would allocate 7.3 MB (their arena, and the scan's tallies and ids).
func TestSnapshotAllocCeilings(t *testing.T) {
	const ceiling = 256 << 10 // bytes per Save
	d, err := dataset.GenerateSynthetic(dataset.DefaultSynthetic(50000))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if err := ix.Save(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("Save allocates %d bytes", per)
	if per > ceiling {
		t.Errorf("Save allocates %d bytes, ceiling %d", per, ceiling)
	}
}

// TestMergeAllocCeilings holds one §4.4 merge of the §5 index at 50 000
// records, with 1 200 pending sets (2.4 %) and 150 tombstones (0.3 %), to
// a ceiling on the bytes it allocates: the pass over the lists, the
// merged collection's one arena, the re-ordering and the rebuild. It
// read 15.1 MB; laying the collection out three times — the forms
// rebuilt in new-id order, a dataset of item sets, the ranked arena —
// read 19.8 MB.
func TestMergeAllocCeilings(t *testing.T) {
	const ceiling = 16_500_000 // bytes per merge
	base, err := dataset.GenerateSynthetic(dataset.DefaultSynthetic(50000))
	if err != nil {
		t.Fatal(err)
	}
	pc := dataset.DefaultSynthetic(1200)
	pc.Seed = 2
	pending, err := dataset.GenerateSynthetic(pc)
	if err != nil {
		t.Fatal(err)
	}
	in := mergeInput{base: base, pending: pending, dead: 150}
	const runs = 2
	var total uint64
	for range runs {
		ix, err := Build(base, Options{})
		if err != nil {
			t.Fatal(err)
		}
		in.apply(t, ix)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := ix.MergeDelta(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		total += after.TotalAlloc - before.TotalAlloc
	}
	per := total / runs
	t.Logf("MergeDelta allocates %d bytes", per)
	if per > ceiling {
		t.Errorf("MergeDelta allocates %d bytes, ceiling %d", per, ceiling)
	}
}
