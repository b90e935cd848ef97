package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/naive"
)

func TestSnapshotRoundTrip(t *testing.T) {
	d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		NumRecords: 3000, DomainSize: 80, MinLen: 1, MaxLen: 9, ZipfTheta: 0.8, Seed: 44,
	})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(d, Options{PageSize: 512, BlockPostings: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Leave a pending delta in place; it must survive the snapshot.
	if _, err := ix.Insert([]dataset.Item{1, 2, 3}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.NumRecords() != ix.NumRecords() || loaded.DomainSize() != ix.DomainSize() {
		t.Fatalf("shape changed: %d/%d records, %d/%d domain",
			loaded.NumRecords(), ix.NumRecords(), loaded.DomainSize(), ix.DomainSize())
	}
	if loaded.DeltaLen() != 1 {
		t.Fatalf("delta lost: %d", loaded.DeltaLen())
	}
	if loaded.Space() != ix.Space() {
		t.Fatalf("space stats changed: %+v vs %+v", loaded.Space(), ix.Space())
	}

	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 150; trial++ {
		k := 1 + rng.Intn(5)
		qs := make([]dataset.Item, k)
		for i := range qs {
			qs[i] = dataset.Item(rng.Intn(80))
		}
		a, err := ix.Subset(qs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Subset(qs)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(a, b) {
			t.Fatalf("Subset(%v) diverged after reload", qs)
		}
		a, err = ix.Equality(qs)
		if err != nil {
			t.Fatal(err)
		}
		b, err = loaded.Equality(qs)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(a, b) {
			t.Fatalf("Equality(%v) diverged after reload", qs)
		}
		a, err = ix.Superset(qs)
		if err != nil {
			t.Fatal(err)
		}
		b, err = loaded.Superset(qs)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(a, b) {
			t.Fatalf("Superset(%v) diverged after reload", qs)
		}
	}

	// The loaded index remains updatable.
	if err := loaded.MergeDelta(); err != nil {
		t.Fatalf("MergeDelta after load: %v", err)
	}
	got, err := loaded.Equality([]dataset.Item{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	want := naive.Equality(d, []dataset.Item{1, 2, 3})
	if len(got) != len(want)+1 {
		t.Fatalf("merged delta record missing: %d answers, want %d", len(got), len(want)+1)
	}
}

func TestSnapshotDetectsCorruption(t *testing.T) {
	d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		NumRecords: 500, DomainSize: 30, MinLen: 1, MaxLen: 6, ZipfTheta: 0.5, Seed: 46,
	})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(d, Options{PageSize: 512, BlockPostings: 8})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	// Flip one byte at a sample of positions; every load must fail with
	// ErrBadSnapshot (never panic, never succeed silently).
	for pos := 0; pos < len(snap); pos += 97 {
		corrupted := append([]byte(nil), snap...)
		corrupted[pos] ^= 0x40
		if _, err := Load(bytes.NewReader(corrupted)); err == nil {
			t.Fatalf("corruption at byte %d went undetected", pos)
		} else if !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("corruption at byte %d: unexpected error %v", pos, err)
		}
	}

	// Truncations must also fail cleanly.
	for _, cut := range []int{0, 3, len(snap) / 2, len(snap) - 1} {
		if _, err := Load(bytes.NewReader(snap[:cut])); err == nil {
			t.Fatalf("truncation at %d went undetected", cut)
		}
	}
}

func TestSnapshotRejectsForeignData(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("definitely not a snapshot"))); err == nil {
		t.Fatal("foreign data accepted")
	}
}

// BenchmarkLoad times Load of the §5 index at 200 000 records from a
// snapshot in memory: the stream and its checksum, btree.Validate, and
// scanLists' pass over every list block.
func BenchmarkLoad(b *testing.B) {
	var buf bytes.Buffer
	if err := sectionIndex(b).Save(&buf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
