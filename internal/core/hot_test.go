package core

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sequence"
	"repro/internal/storage"
	"repro/internal/vbyte"
)

// TestBitmapProbeMatchesKernel holds the hot lists' bitmap path to the
// decode kernels. On a built index, a Load of its Save, a merged index
// and a Reader clone: a list keeps a bitmap exactly when the rule says
// (bitmap bytes, one bit per id up to the list's last, at most its
// encoded blocks' bytes); the bitmap holds exactly the list's ids; and
// for every list with a bitmap, filterByList gives the same ids as the
// same index with its bitmaps dropped — vbyte.AppendMatches on every
// block — over every id, every fourth id, ids spread across blocks
// (each a reseek), runs straddling the metadata regions inside the
// list's id range, and ids past the list's end, with every block it
// visits answered from the bitmap.
func TestBitmapProbeMatchesKernel(t *testing.T) {
	d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		NumRecords: 12000, DomainSize: 300, MinLen: 2, MaxLen: 14, ZipfTheta: 0.9, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	built, err := Build(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := built.Save(&snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.hot, built.hot) {
		t.Error("Load derives other hot lists than the build")
	}
	merged, err := Build(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := merged.Insert(d.Record(i).Set); err != nil {
			t.Fatal(err)
		}
	}
	for id := uint32(3); id <= 9000; id += 7 {
		if err := merged.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := merged.MergeDelta(); err != nil {
		t.Fatal(err)
	}
	reader, err := built.NewReader(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		ix   *Index
	}{{"built", built}, {"loaded", loaded}, {"merged", merged}, {"reader", reader.ix}} {
		checkHotLists(t, c.name, c.ix)
	}
}

// checkHotLists runs TestBitmapProbeMatchesKernel's checks on one index.
func checkHotLists(t *testing.T, name string, ix *Index) {
	t.Helper()
	ix.ensureRuntime()
	kernel := *ix
	kernel.hot, kernel.arena = nil, nil
	kernel.ensureRuntime()

	hot := 0
	for rank := sequence.Rank(0); int(rank) < ix.domainSize; rank++ {
		// The list as its blocks hold it.
		var ids, lasts []uint32
		size := 0
		lc, err := ix.seekTag(rank, nil)
		if err != nil {
			t.Fatal(err)
		}
		for lc.valid {
			if ids, err = vbyte.AppendIDs(ids, lc.cur.Value(), 0, 0, math.MaxUint32); err != nil {
				t.Fatal(err)
			}
			size += len(lc.cur.Value())
			lasts = append(lasts, lc.lastID)
			if err := lc.next(); err != nil {
				t.Fatal(err)
			}
		}
		h := ix.hotList(rank)
		if want := len(lasts) > 0 && 8*(int(lasts[len(lasts)-1])/64+1) <= size; (h != nil) != want {
			t.Fatalf("%s: rank %d (%d blocks, %d bytes) has a bitmap: %v, want %v", name, rank, len(lasts), size, h != nil, want)
		}
		if h == nil {
			continue
		}
		hot++
		var inBits []uint32
		for id := uint32(0); id < uint32(64*len(h.bits)); id++ {
			if h.bits[id>>6]&(1<<(id&63)) != 0 {
				inBits = append(inBits, id)
			}
		}
		if !slices.Equal(inBits, ids) {
			t.Fatalf("%s: rank %d's bitmap holds %d ids, its list %d", name, rank, len(inBits), len(ids))
		}

		last := lasts[len(lasts)-1]
		var every, fourth, spread, straddle, past []uint32
		for id := uint32(1); id <= uint32(ix.numRecords); id++ {
			every = append(every, id)
			if id%4 == 1 {
				fourth = append(fourth, id)
			}
		}
		for k := 0; k < len(lasts); k += 3 {
			spread = append(spread, lasts[k])
		}
		for _, reg := range ix.meta.Regions {
			if !reg.Empty() && reg.L > 4 && reg.L < last {
				for id := reg.L - 4; id <= reg.L+4; id++ {
					straddle = append(straddle, id)
				}
			}
		}
		slices.Sort(straddle)
		straddle = slices.Compact(straddle)
		for id := last - min(last-1, 40); id <= min(last+40, uint32(ix.numRecords)); id++ {
			past = append(past, id)
		}
		for _, c := range []struct {
			what   string
			cands  []uint32
			blocks int // blocks the walk visits, when the set pins it; else 0
		}{
			{"every id", every, len(lasts)},
			{"every fourth id", fourth, 0},
			{"ids spread across blocks", spread, len(spread)},
			{"runs straddling metadata regions", straddle, 0},
			{"ids past the list's end", past, 0},
		} {
			before := ix.arena.bitmapBlocks
			got, err := ix.filterByList(rank, slices.Clone(c.cands))
			if err != nil {
				t.Fatal(err)
			}
			answered := ix.arena.bitmapBlocks - before
			want, err := kernel.filterByList(rank, slices.Clone(c.cands))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: rank %d, %s: the bitmap keeps %d ids, the kernel %d", name, rank, c.what, len(got), len(want))
			}
			if c.blocks > 0 && answered != c.blocks {
				t.Fatalf("%s: rank %d, %s: %d blocks answered from the bitmap, want all %d visited", name, rank, c.what, answered, c.blocks)
			}
			if len(want) > 0 && answered == 0 {
				t.Fatalf("%s: rank %d, %s: no block answered from the bitmap", name, rank, c.what)
			}
		}
	}
	if hot < 3 {
		t.Fatalf("%s: %d lists keep a bitmap, want a few", name, hot)
	}
	if kernel.arena.bitmapBlocks != 0 {
		t.Fatalf("%s: the index without bitmaps answered %d blocks from one", name, kernel.arena.bitmapBlocks)
	}
}

// TestBitmapProbeFollowsChangedKey: a page that changes under the index
// in the key of a hot list's first block, its last id lowered, sends a
// seek for that block's last id past it, onto the second block. The
// kernel does not find the id in the second block; the bitmap, asked
// blindly, would. holds keeps the two paths equal by refusing a block
// whose first candidate is not past the block before it.
func TestBitmapProbeFollowsChangedKey(t *testing.T) {
	d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		NumRecords: 12000, DomainSize: 300, MinLen: 2, MaxLen: 14, ZipfTheta: 0.9, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	cp := &corruptPager{Pager: storage.NewMemPager(storage.DefaultPageSize)}
	ix, err := Build(d, Options{Pool: storage.NewBufferPool(cp, 1024)})
	if err != nil {
		t.Fatal(err)
	}
	pool := storage.NewBufferPool(cp, 64)
	if err := ix.SetPool(pool); err != nil { // flushes the build to cp
		t.Fatal(err)
	}
	ix.ensureRuntime()

	// A hot list of two blocks or more whose first key occurs once across
	// the pages and whose last id's low byte can be zeroed.
	page := make([]byte, cp.PageSize())
	rank, last := sequence.Rank(0), uint32(0)
	for r := sequence.Rank(0); int(r) < ix.domainSize && last == 0; r++ {
		if h := ix.hotList(r); h == nil || len(h.lasts) < 2 || h.lasts[0]&0xFF == 0 {
			continue
		}
		lc, err := ix.seekTag(r, nil)
		if err != nil {
			t.Fatal(err)
		}
		key := bytes.Clone(lc.cur.Key())
		found := 0
		for id := storage.PageID(0); int64(id) < cp.NumPages(); id++ {
			if err := cp.Pager.ReadPage(id, page); err != nil {
				t.Fatal(err)
			}
			if n := bytes.Count(page, key); n > 0 {
				cp.page, cp.off, found = id, bytes.Index(page, key)+len(key)-1, found+n
			}
		}
		if found == 1 {
			rank, last = r, lc.lastID
		}
	}
	if last == 0 {
		t.Fatal("no hot list of two blocks or more has a first key to change")
	}

	// Both sides start from a fresh arena, whose cursor holds no copy of
	// a leaf read before the change.
	cp.b, cp.armed = 0, true
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	hot, kernel := *ix, *ix
	hot.arena = nil
	kernel.hot, kernel.arena = nil, nil
	hot.ensureRuntime()
	kernel.ensureRuntime()
	got, err := hot.filterByList(rank, []uint32{last})
	if err != nil {
		t.Fatal(err)
	}
	want, err := kernel.filterByList(rank, []uint32{last})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 0 {
		t.Fatalf("rank %d: the kernel finds id %d past its block's changed key; the seek did not move", rank, last)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("rank %d, id %d past its block's changed key: the bitmap keeps %v, the kernel %v", rank, last, got, want)
	}
	if hot.arena.bitmapBlocks != 0 {
		t.Fatalf("rank %d: %d blocks answered from the bitmap, want the one visited taken by the kernel", rank, hot.arena.bitmapBlocks)
	}
}
