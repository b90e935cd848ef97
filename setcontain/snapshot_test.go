package setcontain

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/snapio"
)

// mutateForSnapshot leaves realistic pre-merge state on ix: pending
// inserts and tombstones (including a tombstoned delta record), drawn
// deterministically from seed. It returns the inserted ids.
func mutateForSnapshot(t *testing.T, ix *Index, domain int, seed int64) []uint32 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var inserted []uint32
	for i := 0; i < 12; i++ {
		set := make([]Item, 1+rng.Intn(5))
		for j := range set {
			set[j] = Item(rng.Intn(domain))
		}
		id, err := ix.Insert(set)
		if err != nil {
			t.Fatal(err)
		}
		inserted = append(inserted, id)
	}
	// Tombstone a spread of base records plus one fresh delta record.
	for _, id := range []uint32{1, 7, uint32(ix.NumRecords()) - 20, inserted[3]} {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	return inserted
}

// compareWorkload asserts two indexes answer a workload byte-identically.
func compareWorkload(t *testing.T, stage string, want, got *Index, queries []Query) {
	t.Helper()
	for _, q := range queries {
		a, err := want.Eval(q)
		if err != nil {
			t.Fatalf("%s: original %s: %v", stage, q, err)
		}
		b, err := got.Eval(q)
		if err != nil {
			t.Fatalf("%s: restored %s: %v", stage, q, err)
		}
		if !slices.Equal(a, b) && !(len(a) == 0 && len(b) == 0) {
			t.Fatalf("%s: %s diverged: original %v, restored %v", stage, q, a, b)
		}
	}
}

// TestSnapshotRoundTripProperty is the durability contract: for skewed
// workloads over every snapshot-capable kind — single engines and the
// sharded matrix — Save→Open restores an index whose answers are
// byte-identical, with pending deltas and tombstones intact; merging
// both sides afterwards keeps them identical (and physically drops the
// tombstoned postings on each).
func TestSnapshotRoundTripProperty(t *testing.T) {
	const domain = 60
	queries := zipfWorkload(120, domain, 0.9, 91)
	cases := []struct {
		name string
		opts []Option
	}{
		{"OIF", []Option{WithKind(OIF), WithPageSize(512), WithBlockPostings(8)}},
		{"IF", []Option{WithKind(InvertedFile), WithPageSize(512)}},
		{"Sharded3", []Option{WithKind(Sharded), WithShards(3), WithPageSize(512), WithBlockPostings(8)}},
		{"Sharded5", []Option{WithKind(Sharded), WithShards(5), WithPageSize(512), WithBlockPostings(8)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := skewedCollection(t, 2500, domain, 0.9, 90)
			ix, err := New(c, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			mutateForSnapshot(t, ix, domain, 92)

			var snap bytes.Buffer
			if err := ix.Save(&snap); err != nil {
				t.Fatalf("Save: %v", err)
			}
			restored, err := Open(bytes.NewReader(snap.Bytes()))
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if restored.Kind() != ix.Kind() {
				t.Fatalf("restored kind %v, want %v", restored.Kind(), ix.Kind())
			}
			if restored.NumRecords() != ix.NumRecords() ||
				restored.PendingInserts() != ix.PendingInserts() ||
				restored.Deleted() != ix.Deleted() {
				t.Fatalf("restored shape %d/%d/%d, want %d/%d/%d",
					restored.NumRecords(), restored.PendingInserts(), restored.Deleted(),
					ix.NumRecords(), ix.PendingInserts(), ix.Deleted())
			}
			compareWorkload(t, "pre-merge", ix, restored, queries)

			// Both sides merge independently and stay identical; the
			// restored side keeps accepting updates.
			if err := ix.MergeDelta(); err != nil {
				t.Fatal(err)
			}
			if err := restored.MergeDelta(); err != nil {
				t.Fatalf("MergeDelta after restore: %v", err)
			}
			compareWorkload(t, "post-merge", ix, restored, queries)

			idA, err := ix.Insert([]Item{2, 4})
			if err != nil {
				t.Fatal(err)
			}
			idB, err := restored.Insert([]Item{2, 4})
			if err != nil {
				t.Fatalf("Insert after restore: %v", err)
			}
			if idA != idB {
				t.Fatalf("post-restore insert ids diverged: %d vs %d", idA, idB)
			}
			compareWorkload(t, "post-insert", ix, restored, queries)

			// A second snapshot of the merged index round-trips too.
			snap.Reset()
			if err := ix.Save(&snap); err != nil {
				t.Fatal(err)
			}
			again, err := Open(bytes.NewReader(snap.Bytes()))
			if err != nil {
				t.Fatalf("Open after merge: %v", err)
			}
			compareWorkload(t, "re-snapshot", ix, again, queries)
		})
	}
}

// TestSnapshotSurvivesStore drives the restored index through a Store,
// the way setcontaind -snapshot serves it.
func TestSnapshotSurvivesStore(t *testing.T) {
	const domain = 50
	c := skewedCollection(t, 1500, domain, 0.8, 95)
	ix, err := New(c, WithKind(Sharded), WithShards(3), WithPageSize(512), WithBlockPostings(8))
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := ix.Save(&snap); err != nil {
		t.Fatal(err)
	}
	restored, err := Open(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore(restored, 4)
	for _, q := range zipfWorkload(40, domain, 0.8, 96) {
		want, err := ix.Eval(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := store.Exec(t.Context(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("%s: store over restored index diverged", q)
		}
	}
}

// TestOpenRejectsCorruption flips bytes across a sharded container (the
// format with the most framing) and truncates it at several points;
// every Open must fail cleanly, never panic, never silently succeed.
func TestOpenRejectsCorruption(t *testing.T) {
	c := skewedCollection(t, 600, 30, 0.8, 97)
	ix, err := New(c, WithKind(Sharded), WithShards(2), WithPageSize(512), WithBlockPostings(8))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	for pos := 0; pos < len(snap); pos += 211 {
		corrupted := append([]byte(nil), snap...)
		corrupted[pos] ^= 0x40
		if _, err := Open(bytes.NewReader(corrupted)); err == nil {
			t.Fatalf("corruption at byte %d went undetected", pos)
		}
	}
	for _, cut := range []int{0, 5, len(snap) / 3, len(snap) - 1} {
		if _, err := Open(bytes.NewReader(snap[:cut])); err == nil {
			t.Fatalf("truncation at %d went undetected", cut)
		}
	}
	if _, err := Open(bytes.NewReader([]byte("not a container at all"))); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("foreign data: got %v, want ErrBadSnapshot", err)
	}
}

// TestOpenBoundsShardFrames: a sharded container whose resealed
// manifest claims a shard frame of snapio.MaxSliceLen bytes, with no
// frame behind it, must fail with ErrBadSnapshot before memory grows by
// anything near the claim — the frame is read as its bytes arrive.
func TestOpenBoundsShardFrames(t *testing.T) {
	var buf bytes.Buffer
	err := saveContainer(&buf, Sharded, 0, func(w io.Writer) error {
		cw := snapio.NewWriter(w)
		for _, v := range []uint32{1, manifestRoundRobin, 10, uint32(OIF), 1, 64} {
			if err := snapio.WriteU32(cw, v); err != nil {
				return err
			}
		}
		for _, v := range []uint64{0, snapio.MaxSliceLen} { // theta bits, frame length
			if err := snapio.WriteU64(cw, v); err != nil {
				return err
			}
		}
		return cw.WriteTrailer()
	})
	if err != nil {
		t.Fatal(err)
	}
	size := buf.Len()
	if size >= 100 {
		t.Fatalf("container is %d bytes, want under 100", size)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = Open(&buf)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("Open = %v, want ErrBadSnapshot", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<20 {
		t.Fatalf("Open allocated %d MiB for a %d-byte container", grew>>20, size)
	}
}
