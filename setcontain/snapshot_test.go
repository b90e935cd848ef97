package setcontain

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"

	"repro/internal/snapio"
)

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
