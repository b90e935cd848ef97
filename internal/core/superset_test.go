package core

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/naive"
	"repro/internal/overlay"
	"repro/internal/sequence"
	"repro/internal/storage"
	"repro/internal/vbyte"
	"repro/internal/workload"
)

// TestSupersetRefusesIDPastRecords raises the gap of the last posting of
// the last record's list blocks, which no block Load accepts can carry,
// so that a superset gathers an id past the index's records: the query
// must fail, not index the candidate bitmap with it.
func TestSupersetRefusesIDPastRecords(t *testing.T) {
	d, ix, cp, pool := corruptibleIndex(t)
	last := uint32(ix.numRecords)
	sf := reorderedForms(t, d).SF(last)
	qs := ix.ord.AppendSet(nil, sf)
	// The blocks are looked up through a reader of their own: the
	// index's cursor would otherwise hold the leaf as it was, and a
	// reseek searches that copy.
	look := lookup(t, ix)
	// Each list but the smallest item's ends with last's posting; raise
	// the top 7-bit group of its gap to 0x7f where that moves the id.
	for _, r := range sf[1:] {
		lc, err := look.seekID(r, last)
		if err != nil {
			t.Fatal(err)
		}
		val := bytes.Clone(lc.cur.Value())
		ps, err := vbyte.DecodePostings(val, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		k := len(ps) - 1
		if ps[k].ID != last {
			t.Fatalf("list of rank %d ends at id %d, want %d", r, ps[k].ID, last)
		}
		prev := uint32(0)
		if k > 0 {
			prev = ps[k-1].ID
		}
		head, err := vbyte.AppendPostings(nil, ps[:k], 0)
		if err != nil {
			t.Fatal(err)
		}
		top := len(head) + len(vbyte.AppendUint32(nil, last-prev)) - 1
		if val[top] == 0x7f {
			continue
		}
		page, off := locateBlock(t, cp, val)
		cp.page, cp.off, cp.b, cp.armed = page, off+top, 0x7f, true
		break
	}
	if !cp.armed {
		t.Fatal("no list of the last record could be given an id past the records")
	}
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	if got, err := ix.AppendSuperset(nil, qs); err == nil || !strings.Contains(err.Error(), "past 3000 records") {
		t.Fatalf("superset %v over an id past the records answered %d ids, err %v; want an error naming the record count",
			qs, len(got), err)
	}
}

// TestFailedSupersetLeavesArenaReusable fails a superset in its count
// phase — a zeroed gap in a block of an item it gathers after others,
// so candidates are already in its table — on an Index and on a Reader
// over the same pages, and holds the next superset and the next subset
// on the same handle to internal/naive: the table is reset by the query
// that uses it, not by the one that filled it.
func TestFailedSupersetLeavesArenaReusable(t *testing.T) {
	d, ix, cp, pool := corruptibleIndex(t)
	forms := reorderedForms(t, d)
	rd, err := ix.NewReader(64)
	if err != nil {
		t.Fatal(err)
	}

	// The block: the middle one of the first list of three blocks or
	// more with a one-byte gap after its head; the query: the set of the
	// record posted there, plus the domain's least frequent items, whose
	// lists are gathered first.
	look := lookup(t, ix)
	var val []byte
	var qs []dataset.Item
	gapAt := -1
	for rank := sequence.Rank(0); int(rank) < ix.domainSize && gapAt < 0; rank++ {
		blocks := (ix.listPostings[rank] + DefaultBlockPostings - 1) / DefaultBlockPostings
		if blocks < 3 {
			continue
		}
		lc, err := look.seekTag(rank, nil)
		if err != nil {
			t.Fatal(err)
		}
		for range blocks / 2 {
			if err := lc.next(); err != nil {
				t.Fatal(err)
			}
		}
		val = bytes.Clone(lc.cur.Value())
		ps, err := vbyte.DecodePostings(val, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k < len(ps) && gapAt < 0; k++ {
			if ps[k].ID-ps[k-1].ID < 0x80 {
				enc, err := vbyte.AppendPostings(nil, ps[:k], 0)
				if err != nil {
					t.Fatal(err)
				}
				gapAt = len(enc)
				qs = ix.ord.AppendSet(nil, forms.SF(ps[k].ID))
			}
		}
	}
	if gapAt < 0 {
		t.Fatal("no list of three blocks has a one-byte gap in a middle block")
	}
	for r := ix.domainSize - 1; len(qs) < 20; r-- {
		if it := ix.ord.Items()[r]; !slices.Contains(qs, it) {
			qs = append(qs, it)
		}
	}
	page, off := locateBlock(t, cp, val)
	cp.page, cp.off, cp.b = page, off+gapAt, 0

	sub := qs[:2]
	for _, h := range []struct {
		name string
		ix   *Index
		pool *storage.BufferPool
	}{{"index", ix, pool}, {"reader", rd.ix, rd.Pool()}} {
		cp.armed = true
		if err := h.pool.DropAll(); err != nil {
			t.Fatal(err)
		}
		if got, err := h.ix.AppendSuperset(nil, qs); !errors.Is(err, vbyte.ErrNonMonotonic) {
			t.Fatalf("%s: superset over the zeroed gap returned %v (%d ids), want an error wrapping %v",
				h.name, err, len(got), vbyte.ErrNonMonotonic)
		}
		if len(h.ix.arena.table.used) == 0 {
			t.Fatalf("%s: the superset failed before it admitted a candidate", h.name)
		}
		cp.armed = false
		if err := h.pool.DropAll(); err != nil {
			t.Fatal(err)
		}
		got, err := h.ix.AppendSuperset(nil, qs)
		if want := naive.Superset(d, qs); err != nil || !equalIDs(got, want) {
			t.Errorf("%s: superset after the failure answered %v, err %v; want %v", h.name, got, err, want)
		}
		got, err = h.ix.AppendSubset(nil, sub)
		if want := naive.Subset(d, sub); err != nil || !equalIDs(got, want) {
			t.Errorf("%s: subset %v after the failure answered %d ids, err %v; want %d", h.name, sub, len(got), err, len(want))
		}
		for w, m := range h.ix.arena.marks {
			if m != 0 {
				t.Errorf("%s: AppendMatches' marks word %d is %#x after the subset, want 0", h.name, w, m)
			}
		}
	}
}

// lookup returns a reader's index over ix's pages, with its own cursor,
// for a test to find blocks through.
func lookup(t *testing.T, ix *Index) *Index {
	t.Helper()
	rd, err := ix.NewReader(64)
	if err != nil {
		t.Fatal(err)
	}
	rd.ix.ensureRuntime()
	return rd.ix
}

// FuzzSupersetCounts holds AppendSuperset to internal/naive over a small
// Zipf dataset with empty, singleton and long records and items no record
// holds, with optional pending inserts and tombstones, on one index whose
// arena every input's queries share. A query of the dataset's 20 most
// frequent items outgrows the candidate table's first capacity.
func FuzzSupersetCounts(f *testing.F) {
	const absent = 20 // items past the generated domain, in no record
	cfg := dataset.SyntheticConfig{NumRecords: 4000, DomainSize: 200, MinLen: 1, MaxLen: 12, ZipfTheta: 0.8, Seed: 3}
	gen, err := dataset.GenerateSynthetic(cfg)
	if err != nil {
		f.Fatal(err)
	}
	base := dataset.New(cfg.DomainSize + absent)
	for i, r := range gen.Records() {
		if i%97 == 0 {
			if _, err := base.Add(nil); err != nil {
				f.Fatal(err)
			}
		}
		if _, err := base.Add(r.Set); err != nil {
			f.Fatal(err)
		}
	}
	ix, err := Build(base, Options{})
	if err != nil {
		f.Fatal(err)
	}
	top := make([]dataset.Item, 20)
	for k := range top {
		top[k] = ix.ord.Items()[k]
	}
	if _, err := ix.Superset(top); err != nil {
		f.Fatal(err)
	}
	if n := len(ix.arena.table.slots); n <= candTableSlots {
		f.Fatalf("the 20 most frequent items leave the table at %d slots, want it grown past %d", n, candTableSlots)
	}

	f.Add(int64(1), uint8(0), uint8(0), []byte{19, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19})
	f.Add(int64(2), uint8(12), uint8(30), []byte{7, 0, 1, 2, 3, 5, 8, 13, 21, 0, 205, 11, 0, 1, 2, 3, 4, 5, 6, 7, 210, 219, 100, 150})
	f.Add(int64(3), uint8(32), uint8(5), []byte{0, 0, 0, 210, 3, 0, 1, 4, 200})
	f.Fuzz(func(t *testing.T, seed int64, inserts, deletes uint8, qbytes []byte) {
		domain := ix.domainSize
		rng := rand.New(rand.NewSource(seed))
		ix.ov = overlay.Overlay{}
		pending := dataset.New(domain)
		for range inserts % 33 {
			set := make([]dataset.Item, rng.Intn(8))
			for k := range set {
				set[k] = dataset.Item(rng.Intn(1 + rng.Intn(domain))) // frequent items first
			}
			if _, err := ix.Insert(set); err != nil {
				t.Fatal(err)
			}
			if _, err := pending.Add(set); err != nil {
				t.Fatal(err)
			}
		}
		for range deletes % 33 {
			if id := uint32(1 + rng.Intn(ix.NumRecords())); !ix.ov.Dead(id) {
				if err := ix.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		for q := 0; q < 8 && len(qbytes) > 0; q++ {
			k := min(1+int(qbytes[0])%20, len(qbytes)-1)
			qs := make([]dataset.Item, 0, k)
			for _, b := range qbytes[1 : 1+k] {
				qs = append(qs, dataset.Item(int(b)%domain))
			}
			qbytes = qbytes[1+k:]
			if len(qs) == 0 {
				continue
			}
			want := naive.Superset(base, qs)
			for _, id := range naive.Superset(pending, qs) {
				want = append(want, uint32(base.Len())+id)
			}
			want = slices.DeleteFunc(want, ix.ov.Dead)
			got, err := ix.AppendSuperset(nil, qs)
			if err != nil || !equalIDs(got, want) {
				t.Fatalf("superset %v (%d pending, %d dead): got %v, err %v; want %v",
					qs, ix.DeltaLen(), ix.Deleted(), got, err, want)
			}
		}
	})
}

// BenchmarkSupersetPaperPool runs AppendSuperset over the §5 superset
// pool as the repository benchmark's paper_cold_io draws it — 150
// queries at each |qs| of 2, 4, 8, 12, 16 and 20 over the 200 000-record
// synthetic dataset, seed 1 — under the §5 protocol: an 8-page pool,
// dropped before each pass. It reports µs per query.
func BenchmarkSupersetPaperPool(b *testing.B) {
	cfg := dataset.DefaultSynthetic(200_000)
	d, err := dataset.GenerateSynthetic(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := Build(d, Options{})
	if err != nil {
		b.Fatal(err)
	}
	pool := storage.NewBufferPool(ix.Pool().Pager(), storage.DefaultPoolPages)
	if err := ix.SetPool(pool); err != nil {
		b.Fatal(err)
	}
	// paper_cold_io draws its subset and equality queries from the same
	// generator first.
	sizes := []int{2, 4, 8, 12, 16, 20}
	gen := workload.NewGenerator(d, cfg.Seed+1)
	for _, kind := range []workload.Kind{workload.Subset, workload.Equality} {
		for _, size := range sizes {
			gen.Queries(kind, size, 150)
		}
	}
	var queries []workload.Query
	for _, size := range sizes {
		queries = append(queries, gen.Queries(workload.Superset, size, 150)...)
	}
	var dst []uint32
	b.ResetTimer()
	for range b.N {
		if err := pool.DropAll(); err != nil {
			b.Fatal(err)
		}
		for _, q := range queries {
			if dst, err = ix.AppendSuperset(dst[:0], q.Items); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(queries)), "us/query")
}
