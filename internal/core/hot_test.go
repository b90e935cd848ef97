package core

import (
	"bytes"
	"errors"
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

// TestBitmapProbeRechecksReloadedBlock: a block checked against its
// fingerprint under one read of its page is checked again under the
// next. A subset query visits a hot block, which matches; the page is
// dropped from the pool and comes back with the block's last value made
// to run past its end, and the same query must fail as the decode
// kernel fails on it (TestCorruptListBlockIsAnError), not be answered
// from the bitmap on the strength of the earlier check.
func TestBitmapProbeRechecksReloadedBlock(t *testing.T) {
	d, ix, cp, pool := corruptibleIndex(t)
	forms := reorderedForms(t, d)
	// The middle block of the first hot list of three blocks or more.
	rank := sequence.Rank(0)
	for ; int(rank) < ix.domainSize; rank++ {
		if h := ix.hotList(rank); h != nil && len(h.lasts) >= 3 {
			break
		}
	}
	if int(rank) == ix.domainSize {
		t.Fatal("no hot list of three blocks or more")
	}
	h := ix.hotList(rank)
	j := len(h.lasts) / 2
	lc, err := ix.seekID(rank, h.lasts[j])
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Clone(lc.cur.Value())
	// The query {rank, c}: c is the largest rank of a record posted in
	// the block, if not rank itself. The candidates come from c's list;
	// the record's smallest rank precedes rank, so its id precedes rank's
	// metadata region and filterBySmallest probes rank's list for it.
	ps, err := vbyte.DecodePostings(val, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var qs []dataset.Item
	var id uint32
	for _, p := range ps {
		if sf := forms.SF(p.ID); sf[len(sf)-1] != rank && qs == nil {
			qs, id = ix.ord.AppendSet(nil, []sequence.Rank{rank, sf[len(sf)-1]}), ix.origID(p.ID)
		}
	}
	if qs == nil {
		t.Fatalf("no record posted in rank %d's block has a larger rank", rank)
	}
	cp.page, cp.off = locateBlock(t, cp, val)
	cp.off += len(val) - 1
	cp.b = val[len(val)-1] | 0x80

	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	before := ix.arena.bitmapBlocks
	got, err := ix.AppendSubset(nil, qs)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(got, id) {
		t.Fatalf("subset %v misses record %d", qs, id)
	}
	if ix.arena.checked[h.base+j].stamp == 0 || ix.arena.bitmapBlocks == before {
		t.Fatalf("subset %v did not answer rank %d's block %d from the bitmap", qs, rank, j)
	}

	cp.armed = true
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	if got, err := ix.AppendSubset(nil, qs); !errors.Is(err, vbyte.ErrTruncated) {
		t.Fatalf("subset %v over the re-read, changed block returned %v (%d ids), want an error wrapping %v",
			qs, err, len(got), vbyte.ErrTruncated)
	}
}

// TestFingerprintOncePerPageRead counts the fingerprints a hot-list
// subset computes on a warm reader: some on its first run, none on a
// second, which visits the same bitmap blocks under the same page reads,
// and as many as the first after DropAll makes the pool read every page
// again.
func TestFingerprintOncePerPageRead(t *testing.T) {
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
	r, err := built.NewReader(4096)
	if err != nil {
		t.Fatal(err)
	}
	ix := r.ix
	ix.ensureRuntime()
	// Warm the pool with every list's pages, checking no fingerprint.
	for rank := sequence.Rank(0); int(rank) < ix.domainSize; rank++ {
		lc, err := ix.seekTag(rank, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lc.appendIDs(nil, nil, 0, math.MaxUint32); err != nil {
			t.Fatal(err)
		}
	}
	rank := sequence.Rank(0)
	for ix.hotList(rank) == nil {
		rank++
	}
	qs := ix.ord.AppendSet(nil, []sequence.Rank{rank, rank + 20})

	run := func(warm bool) (fingerprints, blocks int, answer []uint32) {
		t.Helper()
		f, b, s := ix.arena.fingerprints, ix.arena.bitmapBlocks, r.Stats()
		answer, err := r.AppendSubset(nil, qs)
		if err != nil {
			t.Fatal(err)
		}
		if misses := r.Stats().Sub(s).Misses; warm && misses != 0 {
			t.Fatalf("a run on the warm pool read %d pages", misses)
		}
		return ix.arena.fingerprints - f, ix.arena.bitmapBlocks - b, answer
	}
	f1, b1, a1 := run(true)
	if f1 == 0 || b1 == 0 {
		t.Fatalf("subset %v computed %d fingerprints and answered %d blocks from a bitmap, want some", qs, f1, b1)
	}
	f2, b2, a2 := run(true)
	if f2 != 0 || b2 != b1 || !slices.Equal(a2, a1) {
		t.Fatalf("second run: %d fingerprints, %d bitmap blocks, %d ids; want 0, %d, %d", f2, b2, len(a2), b1, len(a1))
	}
	if err := r.Pool().DropAll(); err != nil {
		t.Fatal(err)
	}
	f3, b3, a3 := run(false)
	if f3 != f1 || b3 != b1 || !slices.Equal(a3, a1) {
		t.Fatalf("after DropAll: %d fingerprints, %d bitmap blocks, %d ids; want %d, %d, %d", f3, b3, len(a3), f1, b1, len(a1))
	}
}

// BenchmarkSubsetHotLeaf runs the subset leaves the repository
// benchmark's OR, AND NOT and LIMIT ops are built from — {h, c}, h one of
// the 10 most frequent items and c of frequency rank 11 to 110, on a
// fixed schedule — over the §5 synthetic dataset at 200 000 records
// (seed 1), on a warm reader of 4096 pages. Each op is one query; it
// reports the block fingerprints computed per op beside ns/op.
func BenchmarkSubsetHotLeaf(b *testing.B) {
	d, err := dataset.GenerateSynthetic(dataset.DefaultSynthetic(200_000))
	if err != nil {
		b.Fatal(err)
	}
	ix, err := Build(d, Options{})
	if err != nil {
		b.Fatal(err)
	}
	r, err := ix.NewReader(4096)
	if err != nil {
		b.Fatal(err)
	}
	queries := make([][]dataset.Item, 100)
	for k := range queries {
		queries[k] = []dataset.Item{ix.ord.Item(sequence.Rank(k % 10)), ix.ord.Item(sequence.Rank(10 + k))}
	}
	var dst []uint32
	for _, qs := range queries {
		if dst, err = r.AppendSubset(dst[:0], qs); err != nil {
			b.Fatal(err)
		}
	}
	before := r.ix.arena.fingerprints
	b.ResetTimer()
	for i := range b.N {
		if dst, err = r.AppendSubset(dst[:0], queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.ix.arena.fingerprints-before)/float64(b.N), "hashes/op")
}
