package vbyte

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUint64RoundTrip(t *testing.T) {
	cases := []uint64{0, 1, 127, 128, 129, 300, 16383, 16384, 1 << 20, 1<<32 - 1, 1 << 32, math.MaxUint64}
	for _, v := range cases {
		buf := AppendUint64(nil, v)
		got, n, err := Uint64(buf)
		if err != nil {
			t.Fatalf("decode %d: %v", v, err)
		}
		if got != v || n != len(buf) {
			t.Errorf("round trip %d -> %d (n=%d of %d)", v, got, n, len(buf))
		}
	}
}

func TestUint64RoundTripProperty(t *testing.T) {
	f := func(v uint64) bool {
		buf := AppendUint64(nil, v)
		got, n, err := Uint64(buf)
		return err == nil && got == v && n == len(buf)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUint64ConcatenatedStream(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var vals []uint64
	var buf []byte
	for i := 0; i < 1000; i++ {
		v := rng.Uint64() >> uint(rng.Intn(64))
		vals = append(vals, v)
		buf = AppendUint64(buf, v)
	}
	for i, want := range vals {
		got, n, err := Uint64(buf)
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("value %d = %d, want %d", i, got, want)
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes", len(buf))
	}
}

func TestUint64Truncated(t *testing.T) {
	buf := AppendUint64(nil, 1<<40)
	for i := 0; i < len(buf); i++ {
		if _, _, err := Uint64(buf[:i]); err == nil {
			t.Errorf("decoding %d-byte prefix succeeded", i)
		}
	}
}

func TestUint64Overflow(t *testing.T) {
	// 11 continuation bytes can never be a valid uint64.
	buf := make([]byte, 11)
	for i := range buf {
		buf[i] = 0xFF
	}
	if _, _, err := Uint64(buf); err == nil {
		t.Error("11-byte over-long value decoded without error")
	}
	// 10 bytes where the last carries more than 1 bit also overflows.
	buf = buf[:10]
	buf[9] = 0x02
	if _, _, err := Uint64(buf); err == nil {
		t.Error("65-bit value decoded without error")
	}
}

func TestUint32RejectsWideValues(t *testing.T) {
	buf := AppendUint64(nil, 1<<33)
	if _, _, err := Uint32(buf); err == nil {
		t.Error("Uint32 decoded a 33-bit value")
	}
	buf = AppendUint32(nil, math.MaxUint32)
	v, _, err := Uint32(buf)
	if err != nil || v != math.MaxUint32 {
		t.Errorf("Uint32(max) = %d, %v", v, err)
	}
}

func TestPostingsRoundTrip(t *testing.T) {
	ps := []Posting{{1, 3}, {2, 1}, {9, 12}, {10, 2}, {1000000, 20}}
	buf, err := AppendPostings(nil, ps, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePostings(buf, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ps) {
		t.Fatalf("decoded %d postings, want %d", len(got), len(ps))
	}
	for i := range ps {
		if got[i] != ps[i] {
			t.Errorf("posting %d = %+v, want %+v", i, got[i], ps[i])
		}
	}
}

func TestPostingsWithBase(t *testing.T) {
	ps := []Posting{{100, 2}, {101, 5}}
	buf, err := AppendPostings(nil, ps, 90)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePostings(buf, 90, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].ID != 100 || got[1].ID != 101 {
		t.Fatalf("decoded ids %d,%d", got[0].ID, got[1].ID)
	}
	// Decoding with the wrong base shifts ids — callers must store the base.
	got, err = DecodePostings(buf, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].ID != 10 {
		t.Fatalf("wrong-base decode gave id %d, want 10", got[0].ID)
	}
}

func TestPostingsRejectNonMonotonic(t *testing.T) {
	if _, err := AppendPostings(nil, []Posting{{5, 1}, {5, 1}}, 0); err == nil {
		t.Error("equal ids accepted")
	}
	if _, err := AppendPostings(nil, []Posting{{5, 1}, {4, 1}}, 0); err == nil {
		t.Error("decreasing ids accepted")
	}
	if _, err := AppendPostings(nil, []Posting{{5, 1}}, 5); err == nil {
		t.Error("id equal to base accepted")
	}
}

func TestPostingsRandomizedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(200)
		ps := make([]Posting, 0, n)
		id := uint32(0)
		for i := 0; i < n; i++ {
			id += uint32(1 + rng.Intn(1000))
			ps = append(ps, Posting{ID: id, Length: uint32(rng.Intn(30))})
		}
		buf, err := AppendPostings(nil, ps, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodePostings(buf, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ps) {
			t.Fatalf("trial %d: decoded %d of %d", trial, len(got), len(ps))
		}
		for i := range ps {
			if got[i] != ps[i] {
				t.Fatalf("trial %d posting %d: %+v != %+v", trial, i, got[i], ps[i])
			}
		}
	}
}

func TestDecodePostingsErrors(t *testing.T) {
	buf, err := AppendPostings(nil, []Posting{{128, 300}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(buf); i++ {
		if _, err := DecodePostings(buf[:i], 0, nil); err == nil {
			t.Errorf("truncated decode at %d succeeded", i)
		}
	}
	// A zero gap is an encoding corruption.
	bad := AppendUint32(nil, 0)
	bad = AppendUint32(bad, 1)
	if _, err := DecodePostings(bad, 0, nil); err == nil {
		t.Error("zero-gap stream decoded without error")
	}
}

func TestCompressionEffectiveness(t *testing.T) {
	// Dense id runs (small d-gaps) must compress to about 2 bytes per
	// posting — the property the paper's §3 relies on ("their average
	// d-gaps are smaller").
	ps := make([]Posting, 1000)
	for i := range ps {
		ps[i] = Posting{ID: uint32(i + 1), Length: 5}
	}
	buf, err := AppendPostings(nil, ps, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 2000 {
		t.Fatalf("dense run encoded to %d bytes, want 2000", len(buf))
	}
}

func BenchmarkAppendPostings(b *testing.B) {
	ps := make([]Posting, 1024)
	id := uint32(0)
	rng := rand.New(rand.NewSource(1))
	for i := range ps {
		id += uint32(1 + rng.Intn(50))
		ps[i] = Posting{ID: id, Length: uint32(2 + rng.Intn(18))}
	}
	buf := make([]byte, 0, 8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		var err error
		buf, err = AppendPostings(buf, ps, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodePostings(b *testing.B) {
	ps := make([]Posting, 1024)
	id := uint32(0)
	rng := rand.New(rand.NewSource(1))
	for i := range ps {
		id += uint32(1 + rng.Intn(50))
		ps[i] = Posting{ID: id, Length: uint32(2 + rng.Intn(18))}
	}
	buf, err := AppendPostings(nil, ps, 0)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]Posting, 0, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = out[:0]
		out, err = DecodePostings(buf, 0, out)
		if err != nil {
			b.Fatal(err)
		}
	}
}
