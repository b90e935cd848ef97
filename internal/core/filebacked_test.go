package core

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/naive"
	"repro/internal/storage"
)

// TestFileBackedBuildAndQuery runs the whole index over a real file pager
// (Options.Pool), the way an index larger than memory would be hosted.
// Queries must agree with the oracle and survive a pool swap to the
// minimal cache.
func TestFileBackedBuildAndQuery(t *testing.T) {
	d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		NumRecords: 4000, DomainSize: 80, MinLen: 2, MaxLen: 9, ZipfTheta: 0.8, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "oif.pages")
	fp, err := storage.CreateFilePager(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer fp.Close()

	ix, err := Build(d, Options{
		PageSize:      4096,
		BlockPostings: 16,
		Pool:          storage.NewBufferPool(fp, 256),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.SetPool(storage.NewBufferPool(fp, storage.DefaultPoolPages)); err != nil {
		t.Fatal(err)
	}

	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Fatal("index file is empty")
	}
	if info.Size()%4096 != 0 {
		t.Fatalf("index file size %d not page aligned", info.Size())
	}

	for i := 0; i < 50; i++ {
		r := d.Record(i * 37)
		got, err := ix.Subset(r.Set)
		if err != nil {
			t.Fatal(err)
		}
		if want := naive.Subset(d, r.Set); !equalIDs(got, want) {
			t.Fatalf("file-backed Subset(%v) = %v, want %v", r.Set, got, want)
		}
		got, err = ix.Equality(r.Set)
		if err != nil {
			t.Fatal(err)
		}
		if want := naive.Equality(d, r.Set); !equalIDs(got, want) {
			t.Fatalf("file-backed Equality diverged")
		}
	}
}

// TestPoolOptionValidation covers misuse of Options.Pool.
func TestPoolOptionValidation(t *testing.T) {
	d := dataset.New(4)
	d.Add([]dataset.Item{0, 1})
	// Page size conflict.
	pool := storage.NewBufferPool(storage.NewMemPager(1024), 16)
	if _, err := Build(d, Options{PageSize: 512, Pool: pool}); err == nil {
		t.Fatal("conflicting page sizes accepted")
	}
	// Matching explicit page size is fine.
	pool2 := storage.NewBufferPool(storage.NewMemPager(1024), 16)
	if _, err := Build(d, Options{PageSize: 1024, Pool: pool2}); err != nil {
		t.Fatalf("matching page size rejected: %v", err)
	}
	// Default page size adopts the pool's.
	pool3 := storage.NewBufferPool(storage.NewMemPager(1024), 16)
	ix, err := Build(d, Options{Pool: pool3})
	if err != nil {
		t.Fatal(err)
	}
	if ix.opts.PageSize != 1024 {
		t.Fatalf("index did not adopt pool page size: %d", ix.opts.PageSize)
	}
}
