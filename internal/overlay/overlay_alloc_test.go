//go:build !race

package overlay

// Built only without -race (the detector's instrumentation allocates);
// `make alloc-check` is what runs it in CI.

import (
	"runtime"
	"testing"
)

// TestOverlayMatchesZeroAllocs is the allocation ratchet of the delta's
// query side: over a non-empty delta with tombstones, and into a dst
// with capacity, no sweep touches the heap — the superset form sorts in
// place — and neither does Mask over merged and pending ids.
func TestOverlayMatchesZeroAllocs(t *testing.T) {
	const n = 1200
	o, queries := benchDelta(t, n)
	dst := make([]uint32, 0, n)
	cands := make([]uint32, 0, n)
	for _, r := range o.Pending() {
		if r.ID%3 != 0 {
			cands = append(cands, r.ID)
		}
	}
	ids := maskIDs(o)
	masked := make([]uint32, len(ids))
	sweeps := []struct {
		name string
		run  func(i int)
	}{
		{"subset", func(i int) { dst = o.AppendMatches(dst[:0], queries[ContainsAll][i], ContainsAll) }},
		{"equality", func(i int) { dst = o.AppendMatches(dst[:0], queries[Equal][i], Equal) }},
		{"superset", func(i int) { dst = o.AppendMatches(dst[:0], queries[SubsetOf][i], SubsetOf) }},
		{"within", func(i int) { dst = o.AppendMatchesWithin(dst[:0], queries[ContainsAll][i], cands) }},
		{"mask", func(int) { dst = o.Mask(append(masked[:0], ids...)) }}, // last: dst now aliases masked
	}
	for _, s := range sweeps {
		i, matched := 0, 0
		allocs := testing.AllocsPerRun(len(queries[Equal]), func() {
			s.run(i % len(queries[Equal]))
			matched += len(dst)
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: %.2f allocs per sweep, want 0", s.name, allocs)
		}
		if matched == 0 {
			t.Errorf("%s: no query matched anything; the ratchet measures nothing", s.name)
		}
	}
}

// TestDeleteAllocCeilings holds what one Delete allocates at 200 000
// ids: the spine of chunk pointers and the one chunk it sets a bit in,
// under 1 KiB, where a copy of the whole bitmap was 25 KB.
func TestDeleteAllocCeilings(t *testing.T) {
	const (
		merged  = 200000
		deletes = 2000
		ceiling = 1024 // bytes per Delete
	)
	var o Overlay
	if err := o.Delete(merged, merged); err != nil { // the spine at full length
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range deletes {
		if err := o.Delete(uint32(1+i*97), merged); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / deletes; per > ceiling {
		t.Errorf("Delete: %d bytes per call, ceiling %d", per, ceiling)
	}
}
