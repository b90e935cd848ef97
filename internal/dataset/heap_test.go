//go:build !race

package dataset

import (
	"runtime"
	"testing"
)

// liveHeap returns the bytes of live heap objects after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDatasetHeapCeiling holds the live heap the §5 generator's dataset
// at 50 000 records adds to its items and one 4-byte record end each,
// plus one chunk's slack: a record costs its items and four bytes, and
// no slice header (32 bytes a record when every record kept one). Built
// only without -race: the detector's shadow memory is not the dataset's.
func TestDatasetHeapCeiling(t *testing.T) {
	const records = 50000
	before := liveHeap()
	d, err := GenerateSynthetic(DefaultSynthetic(records))
	if err != nil {
		t.Fatal(err)
	}
	added := int64(liveHeap()) - int64(before)
	items := d.ComputeStats().TotalPostings
	ceiling := 4*items + 4*records + 4*arenaChunk
	t.Logf("%d records of %d items add %d bytes of live heap (%.2f per record past the items), ceiling %d",
		records, items, added, float64(added-4*items)/records, ceiling)
	if added > ceiling {
		t.Errorf("GenerateSynthetic(%d records, %d items) adds %d bytes of live heap, over the %d of 4 B an item, 4 B a record and one chunk",
			records, items, added, ceiling)
	}
	runtime.KeepAlive(d)
}
