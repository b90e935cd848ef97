package invfile

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

func TestSnapshotRoundTrip(t *testing.T) {
	d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		NumRecords: 2500, DomainSize: 60, MinLen: 1, MaxLen: 8, ZipfTheta: 0.8, Seed: 160,
	})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(d, BuildOptions{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	// Pending state must survive: two inserts, two deletes (one of a
	// delta record), all unmerged.
	if _, err := ix.Insert([]dataset.Item{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	freshID, err := ix.Insert([]dataset.Item{4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(9); err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(freshID); err != nil {
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
	if loaded.DeltaLen() != 2 || loaded.Deleted() != 2 {
		t.Fatalf("mutation state lost: delta %d, dead %d", loaded.DeltaLen(), loaded.Deleted())
	}
	if loaded.ListBytes() != ix.ListBytes() {
		t.Fatalf("list bytes changed: %d vs %d", loaded.ListBytes(), ix.ListBytes())
	}

	compare := func(stage string, a, b *Index) {
		t.Helper()
		rng := rand.New(rand.NewSource(161))
		for trial := 0; trial < 120; trial++ {
			k := rng.Intn(5)
			qs := make([]dataset.Item, k)
			for i := range qs {
				qs[i] = dataset.Item(rng.Intn(60))
			}
			for _, pred := range []string{"subset", "equality", "superset"} {
				var x, y []uint32
				var ex, ey error
				switch pred {
				case "subset":
					x, ex = a.Subset(qs)
					y, ey = b.Subset(qs)
				case "equality":
					x, ex = a.Equality(qs)
					y, ey = b.Equality(qs)
				default:
					x, ex = a.Superset(qs)
					y, ey = b.Superset(qs)
				}
				if ex != nil || ey != nil {
					t.Fatalf("%s %s(%v): %v / %v", stage, pred, qs, ex, ey)
				}
				if !equalIDs(x, y) {
					t.Fatalf("%s %s(%v) diverged: %v vs %v", stage, pred, qs, x, y)
				}
			}
		}
	}
	compare("pre-merge", ix, loaded)

	// Both merge; the deferred physical fold-out must shrink both alike.
	beforeBytes := loaded.ListBytes()
	if err := ix.MergeDelta(); err != nil {
		t.Fatal(err)
	}
	if err := loaded.MergeDelta(); err != nil {
		t.Fatalf("MergeDelta after load: %v", err)
	}
	if loaded.ListBytes() >= beforeBytes+16 && ix.ListBytes() != loaded.ListBytes() {
		t.Fatalf("merged list bytes diverge: %d vs %d", ix.ListBytes(), loaded.ListBytes())
	}
	compare("post-merge", ix, loaded)
}

func TestSnapshotDetectsCorruption(t *testing.T) {
	d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		NumRecords: 400, DomainSize: 30, MinLen: 1, MaxLen: 6, ZipfTheta: 0.5, Seed: 162,
	})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(d, BuildOptions{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	for pos := 0; pos < len(snap); pos += 89 {
		corrupted := append([]byte(nil), snap...)
		corrupted[pos] ^= 0x20
		if _, err := Load(bytes.NewReader(corrupted)); err == nil {
			t.Fatalf("corruption at byte %d went undetected", pos)
		} else if !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("corruption at byte %d: unexpected error %v", pos, err)
		}
	}
	for _, cut := range []int{0, 3, len(snap) / 2, len(snap) - 1} {
		if _, err := Load(bytes.NewReader(snap[:cut])); err == nil {
			t.Fatalf("truncation at %d went undetected", cut)
		}
	}
}

// TestDeleteImmediateAndPhysical exercises the tombstone lifecycle on
// the raw inverted file: immediate masking, list shrink at merge, no id
// reuse.
func TestDeleteImmediateAndPhysical(t *testing.T) {
	d := dataset.New(6)
	for _, set := range [][]dataset.Item{{1, 2}, {2, 3}, {1, 2, 3}, {}, {5}} {
		if _, err := d.Add(set); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := Build(d, BuildOptions{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(2); err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(4); err != nil { // the empty-set record
		t.Fatal(err)
	}
	got, err := ix.Subset([]dataset.Item{2})
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(got, []uint32{1, 3}) {
		t.Fatalf("Subset(2) = %v, want [1 3]", got)
	}
	got, err = ix.Equality(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("Equality({}) = %v, want empty (record 4 deleted)", got)
	}
	before := ix.ListBytes()
	if err := ix.MergeDelta(); err != nil {
		t.Fatal(err)
	}
	if ix.ListBytes() >= before {
		t.Fatalf("list bytes %d -> %d; want shrink", before, ix.ListBytes())
	}
	if err := ix.Delete(2); err == nil {
		t.Fatal("double delete succeeded")
	}
	id, err := ix.Insert([]dataset.Item{0})
	if err != nil {
		t.Fatal(err)
	}
	if id != 6 {
		t.Fatalf("insert after deletes got id %d, want 6 (no reuse)", id)
	}
}

// BenchmarkLoad times Load of an inverted file over the §5 dataset at
// 200 000 records from a snapshot in memory: the stream and its
// checksum and checkLists' pass over every list. It reports the
// snapshot's size.
func BenchmarkLoad(b *testing.B) {
	d, err := dataset.GenerateSynthetic(dataset.DefaultSynthetic(200000))
	if err != nil {
		b.Fatal(err)
	}
	ix, err := Build(d, BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "snapshot-B")
}
