package core

import (
	"math/rand"
	"slices"
	"testing"
)

// TestSortIDs holds sortIDs to slices.Sort over the lengths either side
// of the radix threshold and up to a whole answer at the benchmark's
// scale, over id ranges that take one to four counting passes, on
// random, sorted, reversed and duplicate-bearing input (a caller's
// candidate set may repeat) — and to zero allocations once the scratch
// has grown.
func TestSortIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lengths := []int{0, 1, radixMinLen - 1, radixMinLen, radixMinLen + 1, 4096, 200000}
	tops := []uint32{1<<radixBits - 1, 200000, 1<<(3*radixBits) - 1, 1<<32 - 1}
	shapes := []struct {
		name  string
		apply func(ids []uint32)
	}{
		{"random", func([]uint32) {}},
		{"sorted", func(ids []uint32) { slices.Sort(ids) }},
		{"reversed", func(ids []uint32) { slices.Sort(ids); slices.Reverse(ids) }},
		{"duplicates", func(ids []uint32) { copy(ids[len(ids)/2:], ids) }},
	}
	var scratch []uint32
	for _, n := range lengths {
		for _, top := range tops {
			for _, shape := range shapes {
				ids := make([]uint32, n)
				for i := range ids {
					ids[i] = uint32(rng.Int63n(int64(top) + 1))
				}
				if n > 0 {
					ids[rng.Intn(n)] = top // the range's last pass runs
				}
				shape.apply(ids)
				want := slices.Clone(ids)
				slices.Sort(want)
				sortIDs(ids, &scratch)
				if !slices.Equal(ids, want) {
					t.Fatalf("n=%d top=%d %s: sortIDs differs from slices.Sort", n, top, shape.name)
				}
			}
		}
	}

	ids := make([]uint32, 200000)
	allocs := testing.AllocsPerRun(5, func() {
		for i := range ids {
			ids[i] = uint32(len(ids) - i)
		}
		sortIDs(ids, &scratch)
	})
	if allocs != 0 {
		t.Errorf("sortIDs with a grown scratch: %.2f allocs, want 0", allocs)
	}
}
