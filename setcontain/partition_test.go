package setcontain

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"

	"repro/internal/snapio"
)

// TestRoundRobinRoundTrip pins the Partitioner contract on the default
// scheme: Locate/GlobalOf are inverse bijections, shards and locals
// stay in range, and ascending globals on one shard map to ascending
// locals (the monotonicity the k-way merge relies on).
func TestRoundRobinRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16} {
		part := NewRoundRobinPartitioner(n)
		if part.NumShards() != n {
			t.Fatalf("n=%d: NumShards=%d", n, part.NumShards())
		}
		lastLocal := make([]uint32, n)
		for g := uint32(1); g <= 1000; g++ {
			s, local := part.Locate(g)
			if s < 0 || s >= n {
				t.Fatalf("n=%d: global %d routed to shard %d", n, g, s)
			}
			if local == 0 {
				t.Fatalf("n=%d: global %d got local id 0", n, g)
			}
			if back := part.GlobalOf(s, local); back != g {
				t.Fatalf("n=%d: GlobalOf(%d, %d) = %d, want %d", n, s, local, back, g)
			}
			if local <= lastLocal[s] {
				t.Fatalf("n=%d: shard %d local ids not ascending: %d after %d",
					n, s, local, lastLocal[s])
			}
			lastLocal[s] = local
		}
		// The first n globals must cover every shard exactly once — the
		// balance property the round-robin scheme exists for.
		seen := make([]bool, n)
		for g := uint32(1); g <= uint32(n); g++ {
			s, _ := part.Locate(g)
			seen[s] = true
		}
		for s, ok := range seen {
			if !ok {
				t.Fatalf("n=%d: shard %d unused by the first %d globals", n, s, n)
			}
		}
	}
}

// TestSnapshotUnknownPartitionScheme: a sharded manifest names its
// partition scheme by number; any number but round-robin's fails as a
// bad snapshot — from Open and from SplitSnapshot — rather than silently
// round-robining foreign data.
func TestSnapshotUnknownPartitionScheme(t *testing.T) {
	ix, err := New(sampleCollection(t), WithKind(Sharded), WithShards(2), WithPageSize(512))
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := ix.Save(&snap); err != nil {
		t.Fatal(err)
	}
	// reframe rewrites the manifest's scheme word under a fresh, valid
	// CRC: the manifest follows the container header and runs to its own
	// trailer — three header words, four plan words per shard, one frame
	// length per shard.
	const header = len(containerMagic) + 4*4 + 4
	const manifest = 3*4 + 2*(3*4+8) + 2*8
	raw := snap.Bytes()
	reframe := func(scheme uint32) []byte {
		body := append([]byte(nil), raw[header:header+manifest]...)
		binary.LittleEndian.PutUint32(body[4:], scheme)
		out := bytes.NewBuffer(append([]byte(nil), raw[:header]...))
		cw := snapio.NewWriter(out)
		if _, err := cw.Write(body); err != nil {
			t.Fatal(err)
		}
		if err := cw.WriteTrailer(); err != nil {
			t.Fatal(err)
		}
		out.Write(raw[header+manifest+4:])
		return out.Bytes()
	}
	if !bytes.Equal(reframe(0), raw) {
		t.Fatal("reframing with round-robin's own number changed the snapshot: manifest layout drifted")
	}
	forged := reframe(42)
	if _, err := Open(bytes.NewReader(forged)); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("Open of scheme 42: got %v, want ErrBadSnapshot", err)
	}
	emit := func(int, ShardPlan, io.Reader) error { return nil }
	if err := SplitSnapshot(bytes.NewReader(forged), emit); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("SplitSnapshot of scheme 42: got %v, want ErrBadSnapshot", err)
	}
}

// reversedRobin is round-robin with the shard order flipped — a
// deliberately different (but still bijective and per-shard monotone)
// scheme, implemented entirely in this test file.
type reversedRobin struct {
	n uint32
}

func (p reversedRobin) NumShards() int { return int(p.n) }
func (p reversedRobin) Locate(global uint32) (int, uint32) {
	return int(p.n - 1 - (global-1)%p.n), (global-1)/p.n + 1
}
func (p reversedRobin) GlobalOf(shard int, local uint32) uint32 {
	return (local-1)*p.n + (p.n - 1 - uint32(shard)) + 1
}

// TestAlternativePartitionerPlugsIn is the deduplication regression
// test: with the id arithmetic centralized in the Partitioner, swapping
// the scheme means implementing the three-method interface and handing
// it to the build — no edits to sharded.go, scatter.go, or any query
// path. Build, query, and update answers under the reversed scheme must
// stay byte-identical to the single-engine reference.
func TestAlternativePartitionerPlugsIn(t *testing.T) {
	const domain = 40
	c := skewedCollection(t, 1200, domain, 0.9, 91)
	single, err := New(c, WithKind(OIF), WithPageSize(512), WithBlockPostings(8))
	if err != nil {
		t.Fatal(err)
	}
	opts := NewOptions(WithKind(Sharded), WithPageSize(512), WithBlockPostings(8))
	eng, err := buildShardedWith(c.ds, opts, reversedRobin{n: 3})
	if err != nil {
		t.Fatal(err)
	}
	reversed := IndexOver(eng)

	compare := func(stage string) {
		t.Helper()
		for _, q := range zipfWorkload(80, domain, 0.9, 92) {
			want, err := q.Eval(single)
			if err != nil {
				t.Fatal(err)
			}
			got, err := q.Eval(reversed)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) && !(len(got) == 0 && len(want) == 0) {
				t.Fatalf("%s %s: reversed scheme %v, single %v", stage, q, got, want)
			}
		}
	}
	compare("built")

	// The mutation path routes through the same Partitioner: ids and
	// answers must keep matching across inserts, deletes, and the merge.
	for i, set := range [][]Item{{1, 2, 3}, {2, 4}, {5}, {1, 6, 7}, {3, 4, 5}} {
		a, err := single.Insert(set)
		if err != nil {
			t.Fatal(err)
		}
		b, err := reversed.Insert(set)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("insert %d: single id %d, reversed-scheme id %d", i, a, b)
		}
	}
	for _, id := range []uint32{3, 10, 1201} {
		if err := single.Delete(id); err != nil {
			t.Fatal(err)
		}
		if err := reversed.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	compare("pending")
	if err := single.MergeDelta(); err != nil {
		t.Fatal(err)
	}
	if err := reversed.MergeDelta(); err != nil {
		t.Fatal(err)
	}
	compare("merged")

	// Sanity: the two schemes really do disagree on placement, so the
	// equality above is evidence the Partitioner is consulted, not luck.
	rr := NewRoundRobinPartitioner(3)
	diverged := false
	for g := uint32(1); g <= 6; g++ {
		s1, _ := rr.Locate(g)
		s2, _ := reversedRobin{n: 3}.Locate(g)
		if s1 != s2 {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("reversedRobin places records like round-robin; test proves nothing")
	}
}

// TestNewRoundRobinPartitionerPanics: a zero-shard partitioner is a
// programming error, caught at construction.
func TestNewRoundRobinPartitionerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRoundRobinPartitioner(0) did not panic")
		}
	}()
	NewRoundRobinPartitioner(0)
}

// ExampleNewRoundRobinPartitioner documents the id arithmetic.
func ExampleNewRoundRobinPartitioner() {
	part := NewRoundRobinPartitioner(3)
	for g := uint32(1); g <= 6; g++ {
		s, local := part.Locate(g)
		fmt.Printf("global %d -> shard %d local %d\n", g, s, local)
	}
	// Output:
	// global 1 -> shard 0 local 1
	// global 2 -> shard 1 local 1
	// global 3 -> shard 2 local 1
	// global 4 -> shard 0 local 2
	// global 5 -> shard 1 local 2
	// global 6 -> shard 2 local 2
}
