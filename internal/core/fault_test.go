package core

import (
	"errors"
	"testing"

	"repro/internal/dataset"
	"repro/internal/storage"
)

// TestQueryFaultsSurfaceCleanly builds the index on a fault-injectable
// pager (disabled during the build) and verifies all three predicates
// surface injected read faults instead of panicking or silently
// returning partial answers.
func TestQueryFaultsSurfaceCleanly(t *testing.T) {
	d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		NumRecords: 3000, DomainSize: 60, MinLen: 2, MaxLen: 8, ZipfTheta: 0.8, Seed: 33,
	})
	if err != nil {
		t.Fatal(err)
	}
	faulty := storage.NewFaultyPager(storage.NewMemPager(512), 0)
	ix, err := Build(d, Options{
		PageSize:      512,
		BlockPostings: 8,
		Pool:          storage.NewBufferPool(faulty, 1024),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.SetPool(storage.NewBufferPool(faulty, 8)); err != nil {
		t.Fatal(err)
	}
	qs := d.Record(100).Set

	// Reference answers while the fault is disabled.
	wantSub, err := ix.Subset(qs)
	if err != nil {
		t.Fatal(err)
	}
	buildOps := faulty.Ops()

	preds := map[string]func() ([]uint32, error){
		"subset":   func() ([]uint32, error) { return ix.Subset(qs) },
		"equality": func() ([]uint32, error) { return ix.Equality(qs) },
		"superset": func() ([]uint32, error) { return ix.Superset(qs) },
	}
	_ = buildOps
	for offset := int64(1); offset <= 40; offset += 2 {
		// Re-arm: fail `offset` operations from now.
		faulty.Reset()
		if err := ix.Pool().DropAll(); err != nil {
			t.Fatal(err)
		}
		faulty.FailAt = faulty.Ops() + offset
		for name, run := range preds {
			got, err := run()
			if err != nil {
				if !errors.Is(err, storage.ErrInjected) {
					t.Fatalf("offset=%d %s: %v", offset, name, err)
				}
				// Disarm so the remaining predicates run clean.
				faulty.Reset()
				continue
			}
			// If the fault did not fire during this query the result
			// must be complete and correct.
			if name == "subset" && !equalIDs(got, wantSub) {
				t.Fatalf("offset=%d: fault-free subset diverged", offset)
			}
		}
	}
}

// TestBuildPropagatesDatasetErrors covers invalid build inputs.
func TestBuildPropagatesDatasetErrors(t *testing.T) {
	// A record too wide for the page size must fail loudly at build.
	wide := dataset.New(3000)
	set := make([]dataset.Item, 800)
	for i := range set {
		set[i] = dataset.Item(i)
	}
	if _, err := wide.Add(set); err != nil {
		t.Fatal(err)
	}
	_, err := Build(wide, Options{PageSize: 512, BlockPostings: 4})
	if !errors.Is(err, ErrRecordTooWide) {
		t.Fatalf("Build with 800-item record on 512B pages: %v, want ErrRecordTooWide", err)
	}
}

// TestFailedMergeLeavesIndexAsItWas builds on a fault-injectable pager,
// adds pending inserts and tombstones, and fails one of MergeDelta's
// page reads at several offsets: each merge must return the injected
// error and leave the answers, the delta and the tombstones as they
// were. With the fault disarmed, the merge must match a fresh Build
// over the records it folds in.
func TestFailedMergeLeavesIndexAsItWas(t *testing.T) {
	gen := func(n int, seed int64) *dataset.Dataset {
		d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
			NumRecords: n, DomainSize: 60, MinLen: 1, MaxLen: 8, ZipfTheta: 0.8, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	in := mergeInput{base: gen(3000, 34), pending: gen(300, 35), dead: 90}
	opts := Options{PageSize: 512, BlockPostings: 8}
	faulty := storage.NewFaultyPager(storage.NewMemPager(512), 0)
	built := opts
	built.Pool = storage.NewBufferPool(faulty, 1024)
	ix, err := Build(in.base, built)
	if err != nil {
		t.Fatal(err)
	}
	in.apply(t, ix)

	var queries [][]dataset.Item
	for i := 0; i < in.base.Len(); i += 250 {
		queries = append(queries, in.base.Record(i).Set)
	}
	for i := 0; i < in.pending.Len(); i += 50 {
		queries = append(queries, in.pending.Record(i).Set)
	}
	answers := func() [][]uint32 {
		var out [][]uint32
		for _, qs := range queries {
			for _, run := range []func([]dataset.Item) ([]uint32, error){ix.Subset, ix.Equality, ix.Superset} {
				ids, err := run(qs)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, ids)
			}
		}
		return out
	}
	want := answers()
	deltaLen, deleted := ix.DeltaLen(), ix.Deleted()
	pages := faulty.NumPages()
	for _, offset := range []int64{1, 2, 3, pages / 4, pages / 2} {
		faulty.FailAt = faulty.Ops() + offset
		if err := ix.MergeDelta(); !errors.Is(err, storage.ErrInjected) {
			t.Fatalf("offset %d of %d pages: merge returned %v, want an injected fault", offset, pages, err)
		}
		faulty.Reset()
		if ix.DeltaLen() != deltaLen || ix.Deleted() != deleted {
			t.Fatalf("offset %d: %d pending, %d deleted after a failed merge; were %d, %d",
				offset, ix.DeltaLen(), ix.Deleted(), deltaLen, deleted)
		}
		for i, got := range answers() {
			if !equalIDs(got, want[i]) {
				t.Fatalf("offset %d: answer %d moved after a failed merge", offset, i)
			}
		}
	}
	if err := ix.MergeDelta(); err != nil {
		t.Fatal(err)
	}
	fresh, err := Build(in.merged(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	sameIndex(t, "merged after failed merges", ix, fresh)
}
