package vbyte

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refUint32 is the pre-optimisation reference implementation of Uint32:
// decode through Uint64 and narrow. The fast decoder must match it on
// every input — value, width, and error classification.
func refUint32(buf []byte) (uint32, int, error) {
	v, n, err := Uint64(buf)
	if err != nil {
		return 0, 0, err
	}
	if v > 0xFFFFFFFF {
		return 0, 0, fmt.Errorf("%w: %d does not fit in 32 bits", ErrOverflow, v)
	}
	return uint32(v), n, nil
}

// checkUint32Matches asserts the fast Uint32 agrees with the reference on
// one input.
func checkUint32Matches(t *testing.T, buf []byte) {
	t.Helper()
	gv, gn, gerr := Uint32(buf)
	wv, wn, werr := refUint32(buf)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("Uint32(%x) err = %v, reference err = %v", buf, gerr, werr)
	}
	if werr != nil {
		for _, sentinel := range []error{ErrTruncated, ErrOverflow} {
			if errors.Is(gerr, sentinel) != errors.Is(werr, sentinel) {
				t.Fatalf("Uint32(%x) err %v classifies %v differently from reference %v",
					buf, gerr, sentinel, werr)
			}
		}
		return
	}
	if gv != wv || gn != wn {
		t.Fatalf("Uint32(%x) = (%d, %d), reference (%d, %d)", buf, gv, gn, wv, wn)
	}
}

func TestUint32FastMatchesReference(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0},
		{1},
		{0x7F},
		{0x80},       // truncated
		{0x80, 0x01}, // 128
		{0xFF, 0x7F}, // 16383
		AppendUint32(nil, math.MaxUint32),
		AppendUint64(nil, math.MaxUint32+1),  // 33 bits: overflow-32
		AppendUint64(nil, math.MaxUint64),    // 64 bits: overflow-32
		{0xFF, 0xFF, 0xFF, 0xFF, 0x0F},       // exactly MaxUint32
		{0xFF, 0xFF, 0xFF, 0xFF, 0x10},       // one past 32 bits
		{0x80, 0x80, 0x80, 0x80, 0x80},       // truncated mid 5th byte
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, // 35-bit-wide zero-payload
		bytes.Repeat([]byte{0xFF}, 11),       // overlong beyond 64 bits
		append(bytes.Repeat([]byte{0x80}, 9), 0x01), // high bit of uint64
		append(bytes.Repeat([]byte{0x80}, 9), 0x02), // 65-bit overflow
	}
	for _, c := range cases {
		checkUint32Matches(t, c)
	}
	// Every encodable 32-bit boundary value round trips identically.
	for shift := 0; shift < 32; shift++ {
		for _, delta := range []int64{-1, 0, 1} {
			v := int64(1)<<uint(shift) + delta
			if v < 0 || v > math.MaxUint32 {
				continue
			}
			checkUint32Matches(t, AppendUint32(nil, uint32(v)))
		}
	}
}

func FuzzUint32(f *testing.F) {
	f.Add([]byte{0x05})
	f.Add([]byte{0x80, 0x01})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x10})
	f.Add(bytes.Repeat([]byte{0x80}, 12))
	f.Fuzz(func(t *testing.T, buf []byte) {
		checkUint32Matches(t, buf)
	})
}

// checkPostingsMatch asserts AppendPostingsAfter, keeping every posting
// (after = prev, no length bound), agrees with the reference
// DecodePostings on one (buf, prev) input, and returns the block's last
// id.
func checkPostingsMatch(t *testing.T, buf []byte, prev uint32) {
	t.Helper()
	want, werr := DecodePostings(buf, prev, nil)
	got, last, gerr := AppendPostingsAfter(nil, buf, prev, prev, math.MaxUint32)
	checkSameError(t, fmt.Sprintf("AppendPostingsAfter(%x, %d)", buf, prev), gerr, werr)
	if werr != nil {
		return
	}
	checkPostings(t, "AppendPostingsAfter", got, want)
	wantLast := prev
	if len(want) > 0 {
		wantLast = want[len(want)-1].ID
	}
	if last != wantLast {
		t.Fatalf("AppendPostingsAfter(%x, %d) last = %d, want %d", buf, prev, last, wantLast)
	}
}

// checkPostings asserts a kernel's postings equal the reference's.
func checkPostings(t *testing.T, kernel string, got, want []Posting) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s returned %d postings %v, reference %d %v", kernel, len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s posting %d = %+v, reference %+v", kernel, i, got[i], want[i])
		}
	}
}

// TestDecodePostingsIntoMatchesReference holds a whole-block decode by
// AppendPostingsAfter to DecodePostings on random, truncated and
// bit-flipped blocks. (The name is kept from the whole-block decoder
// AppendPostingsAfter replaced.)
func TestDecodePostingsIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(150)
		ps := make([]Posting, 0, n)
		id := uint32(0)
		for i := 0; i < n; i++ {
			id += uint32(1 + rng.Intn(1<<uint(rng.Intn(18))))
			ps = append(ps, Posting{ID: id, Length: uint32(rng.Intn(1 << uint(rng.Intn(18))))})
		}
		buf, err := AppendPostings(nil, ps, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkPostingsMatch(t, buf, 0)
		// Truncations and corruptions must classify identically too.
		if len(buf) > 0 {
			checkPostingsMatch(t, buf[:rng.Intn(len(buf))], 0)
			flip := append([]byte(nil), buf...)
			flip[rng.Intn(len(flip))] ^= byte(1 << uint(rng.Intn(8)))
			checkPostingsMatch(t, flip, 0)
		}
	}
}

// TestDecodePostingsIntoReusesArena: every block kernel appends into a
// sized dst without allocating.
func TestDecodePostingsIntoReusesArena(t *testing.T) {
	ps := []Posting{{1, 2}, {3, 4}, {700, 5}, {701, 1}, {702, 9}, {704, 2}}
	buf, err := AppendPostings(nil, ps, 0)
	if err != nil {
		t.Fatal(err)
	}
	arena := make([]Posting, 0, 16)
	ids := make([]uint32, 0, 16)
	marks := []uint64{1<<1 | 1<<4} // ids 701 and 704
	kernels := map[string]func() int{
		"AppendPostingsAfter": func() int {
			out, _, err := AppendPostingsAfter(arena[:0], buf, 0, 1, math.MaxUint32) // all but id 1
			if err != nil {
				t.Fatal(err)
			}
			return len(out)
		},
		"AppendIDs": func() int {
			out, err := AppendIDs(ids[:0], buf, 0, 0, math.MaxUint32)
			if err != nil {
				t.Fatal(err)
			}
			return len(out)
		},
		"AppendMarked": func() int {
			out, err := AppendMarked(ids[:0], buf, 0, marks, 700)
			if err != nil {
				t.Fatal(err)
			}
			return len(out)
		},
	}
	want := map[string]int{"AppendPostingsAfter": len(ps) - 1, "AppendIDs": len(ps), "AppendMarked": 2}
	for name, run := range kernels {
		if got := run(); got != want[name] {
			t.Fatalf("%s returned %d values, want %d", name, got, want[name])
		}
		if allocs := testing.AllocsPerRun(100, func() { run() }); allocs != 0 {
			t.Fatalf("%s into a sized dst allocated %.1f times per run", name, allocs)
		}
	}
}

// checkSameError asserts a kernel's error classifies like the reference's.
func checkSameError(t *testing.T, kernel string, gerr, werr error) {
	t.Helper()
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s err = %v, reference err = %v", kernel, gerr, werr)
	}
	for _, sentinel := range []error{ErrTruncated, ErrOverflow, ErrNonMonotonic} {
		if errors.Is(gerr, sentinel) != errors.Is(werr, sentinel) {
			t.Fatalf("%s err %v classifies %v differently from reference %v", kernel, gerr, sentinel, werr)
		}
	}
}

// checkIDs asserts a kernel's ids equal the reference filter's.
func checkIDs(t *testing.T, kernel string, got, want []uint32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s returned %d ids %v, reference %d %v", kernel, len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s id %d = %d, reference %d", kernel, i, got[i], want[i])
		}
	}
}

// checkKernels holds every block kernel to DecodePostings plus a plain
// filter on one input: AppendMarked to the ids whose bit id-base is set
// in marks, AppendIDs to the ids whose length is in [minLen, maxLen],
// AppendPostingsAfter to the postings (all of them, and those with id
// past base and length at most maxLen), and AppendMatches — in place,
// over the candidates marks encodes — to AppendMarked, leaving its
// bitmap zero.
func checkKernels(t *testing.T, buf []byte, prev uint32, marks []uint64, base, minLen, maxLen uint32) {
	t.Helper()
	ref, werr := DecodePostings(buf, prev, nil)
	var wantMarked, wantIDs []uint32
	var wantAfter []Posting
	wantLast := max(base, prev)
	for _, p := range ref {
		if p.ID > base && p.Length <= maxLen {
			wantAfter = append(wantAfter, p)
		}
		wantLast = max(wantLast, p.ID)
		if p.ID >= base && uint64(p.ID-base) < 64*uint64(len(marks)) && marks[(p.ID-base)/64]>>((p.ID-base)%64)&1 == 1 {
			wantMarked = append(wantMarked, p.ID)
		}
		if p.Length >= minLen && p.Length <= maxLen {
			wantIDs = append(wantIDs, p.ID)
		}
	}

	got, gerr := AppendMarked(nil, buf, prev, marks, base)
	checkSameError(t, "AppendMarked", gerr, werr)
	if werr == nil {
		checkIDs(t, "AppendMarked", got, wantMarked)
	}
	got, gerr = AppendIDs(nil, buf, prev, minLen, maxLen)
	checkSameError(t, "AppendIDs", gerr, werr)
	if werr == nil {
		checkIDs(t, "AppendIDs", got, wantIDs)
	}
	checkPostingsMatch(t, buf, prev)
	after, last, gerr := AppendPostingsAfter(nil, buf, prev, base, maxLen)
	checkSameError(t, "AppendPostingsAfter", gerr, werr)
	if werr == nil {
		checkPostings(t, "AppendPostingsAfter", after, wantAfter)
		if last != wantLast {
			t.Fatalf("AppendPostingsAfter after %d: last = %d, want %d", base, last, wantLast)
		}
	}

	var cands []uint32
	for off := uint64(0); off < 64*uint64(len(marks)); off++ {
		if id := uint64(base) + off; id <= math.MaxUint32 && marks[off/64]>>(off%64)&1 == 1 {
			cands = append(cands, uint32(id))
		}
	}
	var scratch []uint64
	got, gerr = AppendMatches(cands[:0], buf, prev, cands, &scratch)
	checkSameError(t, "AppendMatches", gerr, werr)
	if werr == nil {
		checkIDs(t, "AppendMatches", got, wantMarked)
	}
	for _, w := range scratch {
		if w != 0 {
			t.Fatalf("AppendMatches left its bitmap dirty: %x", scratch)
		}
	}
}

// kernelSeeds are the inputs the kernels' word step can get wrong.
func kernelSeeds() [][]byte {
	var seeds [][]byte
	// A zero gap in each of the four lanes of a word, with postings after.
	for lane := 0; lane < 4; lane++ {
		b := []byte{1, 2, 1, 2, 1, 2, 1, 2, 3, 4}
		b[2*lane] = 0
		seeds = append(seeds, b)
	}
	// A two-byte length straddling a word boundary (bytes 7 and 8), then
	// single-byte postings again.
	seeds = append(seeds, []byte{1, 1, 2, 1, 3, 1, 4, 0x85, 0x02, 1, 1, 1, 1, 1, 1, 1, 1})
	// A block shorter than a word, and a truncated one.
	seeds = append(seeds, []byte{3, 2, 5, 1}, []byte{3, 2, 5, 0x81})
	// A three-byte head gap (a block's first id), then a two-byte gap
	// truncated inside the last word's zero padding.
	head, err := AppendPostings(nil, []Posting{{70000, 5}, {70001, 3}, {70003, 4}}, 0)
	if err != nil {
		panic(err)
	}
	seeds = append(seeds, head, append(head[:len(head):len(head)], 0x85))
	return seeds
}

func FuzzPostingKernels(f *testing.F) {
	hot := hotBlock(1)
	for _, b := range append(kernelSeeds(), hot) {
		f.Add(b, uint32(0), uint64(0x5555_5555_5555_5555), uint64(0x0F0F_0F0F_0F0F_0F0F), uint32(3), uint32(2), uint32(7))
	}
	// Ids below base and beyond the bitmap's two words.
	f.Add(hot, uint32(40), ^uint64(0), ^uint64(0), uint32(300), uint32(0), ^uint32(0))
	// Ids that would carry past 32 bits.
	f.Add([]byte{0x10, 1, 0x10, 1, 0x10, 1, 0x10, 1}, ^uint32(0)-0x20, ^uint64(0), uint64(0), ^uint32(0)-0x30, uint32(1), uint32(1))
	f.Fuzz(func(t *testing.T, buf []byte, prev uint32, m0, m1 uint64, base, minLen, maxLen uint32) {
		checkKernels(t, buf, prev, []uint64{m0, m1}, base, minLen, maxLen)
	})
}

func TestPostingKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, b := range kernelSeeds() {
		for range 8 {
			checkKernels(t, b, 0, []uint64{rng.Uint64(), rng.Uint64()}, uint32(rng.Intn(8)), 1, 4)
		}
	}
	for trial := 0; trial < 300; trial++ {
		buf := hotBlock(int64(trial))
		if trial%3 == 1 {
			buf = buf[:rng.Intn(len(buf))]
		} else if trial%3 == 2 {
			buf[rng.Intn(len(buf))] ^= byte(1 << uint(rng.Intn(8)))
		}
		base := uint32(rng.Intn(200))
		checkKernels(t, buf, 0, []uint64{rng.Uint64(), rng.Uint64()}, base, uint32(rng.Intn(20)), uint32(rng.Intn(20)))
	}
}

// hotBlock encodes one block shaped like a hot list's: 64 postings, gaps
// mostly below 128 with a few two-byte ones, single-byte lengths.
func hotBlock(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	ps := make([]Posting, 64)
	id := uint32(0)
	for i := range ps {
		gap := 1 + rng.Intn(8)
		if rng.Intn(16) == 0 {
			gap = 128 + rng.Intn(400)
		}
		id += uint32(gap)
		ps[i] = Posting{ID: id, Length: uint32(2 + rng.Intn(18))}
	}
	buf, err := AppendPostings(nil, ps, 0)
	if err != nil {
		panic(err)
	}
	return buf
}

// BenchmarkPostingKernels times each kernel on a hot-list-shaped block
// against the reference decoder: AppendMarked with a quarter of the
// block's id range marked (one candidate per four postings, as the
// subset filter sees on the hottest list), AppendIDs with the subset
// RoI scan's length range, AppendPostingsAfter with superset's length
// bound past the block's first quarter.
func BenchmarkPostingKernels(b *testing.B) {
	buf := hotBlock(1)
	ps, err := DecodePostings(buf, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	base := ps[0].ID
	marks := make([]uint64, (ps[len(ps)-1].ID-base)/64+1)
	rng := rand.New(rand.NewSource(2))
	for _, p := range ps {
		if rng.Intn(4) == 0 {
			marks[(p.ID-base)/64] |= 1 << ((p.ID - base) % 64)
		}
	}
	ids := make([]uint32, 0, len(ps))
	out := make([]Posting, 0, len(ps))
	b.Run("AppendMarked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ids, err = AppendMarked(ids[:0], buf, 0, marks, base); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("AppendIDs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ids, err = AppendIDs(ids[:0], buf, 0, 3, math.MaxUint32); err != nil {
				b.Fatal(err)
			}
		}
	})
	after := ps[len(ps)/4].ID
	b.Run("AppendPostingsAfter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if out, _, err = AppendPostingsAfter(out[:0], buf, 0, after, 12); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DecodePostings", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if out, err = DecodePostings(buf, 0, out[:0]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func FuzzDecodePostings(f *testing.F) {
	seed, err := AppendPostings(nil, []Posting{{1, 3}, {2, 1}, {900, 12}}, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed, uint32(0))
	f.Add([]byte{0x00, 0x01}, uint32(0)) // zero gap
	f.Add([]byte{0x80}, uint32(7))       // truncated gap
	f.Add([]byte{0x01}, uint32(7))       // truncated length
	f.Fuzz(func(t *testing.T, buf []byte, prev uint32) {
		checkPostingsMatch(t, buf, prev)
	})
}

func BenchmarkUint32(b *testing.B) {
	small := AppendUint32(nil, 42)
	large := AppendUint32(nil, 1<<27)
	b.Run("1byte", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := Uint32(small); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("4byte", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := Uint32(large); err != nil {
				b.Fatal(err)
			}
		}
	})
}
