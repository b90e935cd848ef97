//go:build !race

package core

import (
	"runtime"
	"testing"

	"repro/internal/dataset"
)

// liveHeap returns the bytes of live heap objects after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestIndexHeapCeiling holds the live heap a Build of the §5 dataset at
// 50 000 records adds to a multiple of what Space accounts for — the
// tree's pages, the metadata table and the id maps. The rest is the
// hot lists' bitmaps, the item order, the per-rank counters and the
// buffer pool; an index that kept its build's sequence forms (one rank
// per item of every record, in 4-byte words, with their offsets) would
// hold about as much again as the pages. Built only without -race: the
// detector's shadow memory is not the index's.
func TestIndexHeapCeiling(t *testing.T) {
	const ceiling = 1.3 // multiple of Space's bytes: 1.07 now, 2.0 with the forms kept
	d, err := dataset.GenerateSynthetic(dataset.DefaultSynthetic(50000))
	if err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	ix, err := Build(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	added := float64(liveHeap()) - float64(before)
	sp := ix.Space()
	space := float64(sp.TreeBytes + sp.MetaBytes + sp.MapBytes)
	t.Logf("Build adds %.2f MB of live heap; Space accounts for %.2f MB (%.2fx)", added/(1<<20), space/(1<<20), added/space)
	if added > ceiling*space {
		t.Errorf("Build adds %.0f bytes of live heap, over %.1fx the %.0f bytes Space accounts for", added, ceiling, space)
	}
	runtime.KeepAlive(ix)
	runtime.KeepAlive(d)
}
