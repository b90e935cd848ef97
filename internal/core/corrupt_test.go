package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sequence"
	"repro/internal/storage"
	"repro/internal/vbyte"
)

// corruptPager hands out one byte of one page altered while armed; every
// other read is the wrapped pager's.
type corruptPager struct {
	storage.Pager
	armed bool
	page  storage.PageID
	off   int
	b     byte
}

func (p *corruptPager) ReadPage(id storage.PageID, buf []byte) error {
	if err := p.Pager.ReadPage(id, buf); err != nil {
		return err
	}
	if p.armed && id == p.page {
		buf[p.off] = p.b
	}
	return nil
}

// TestCorruptListBlockIsAnError alters one list block on its page — one
// gap byte zeroed, or the block's last value made to run past its end —
// and holds every query path that visits the block to an error of the
// class DecodePostings reports: subset, equality, superset and
// AppendSubsetWithin decode and check every posting of every block they
// visit, so none may answer past it. The queries are built to visit it:
// each is the set of a record posted in the block whose least frequent
// item is the block's list, so the RoI scans of subset, equality and
// superset reach the block's tag and AppendSubsetWithin's id probe (the
// record as its one candidate) its id range. A further query pool must
// either fail the same way or answer exactly as before the corruption.
func TestCorruptListBlockIsAnError(t *testing.T) {
	d, ix, cp, pool := corruptibleIndex(t)
	forms := rebuiltForms(t, ix)

	var err error
	// The block: the middle one of the first list of three blocks or more
	// whose middle block posts a record the list's item is the least
	// frequent of.
	var val []byte
	var ps []vbyte.Posting
	var visitors [][]dataset.Item
	var visitorIDs []uint32
	for rank := sequence.Rank(0); int(rank) < ix.domainSize && visitors == nil; rank++ {
		blocks := (ix.listPostings[rank] + DefaultBlockPostings - 1) / DefaultBlockPostings
		if blocks < 3 {
			continue
		}
		lc, err := ix.seekTag(rank, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k := int64(0); k < blocks/2; k++ {
			if err := lc.next(); err != nil {
				t.Fatal(err)
			}
		}
		val = bytes.Clone(lc.cur.Value())
		if ps, err = vbyte.DecodePostings(val, 0, nil); err != nil {
			t.Fatal(err)
		}
		for _, p := range ps {
			if sf := forms.SF(p.ID); len(sf) >= 2 && sf[len(sf)-1] == rank {
				visitors = append(visitors, ix.ord.AppendSet(nil, sf))
				visitorIDs = append(visitorIDs, ix.origID(p.ID))
			}
		}
	}
	if visitors == nil {
		t.Fatal("no list block posts a record whose least frequent item is its list's")
	}
	cp.page, cp.off = locateBlock(t, cp, val)

	type query struct {
		name string
		run  func() ([]uint32, error)
	}
	var visiting, others []query
	for k, qs := range visitors {
		cands := visitorIDs[k : k+1]
		visiting = append(visiting,
			query{"subset", func() ([]uint32, error) { return ix.AppendSubset(nil, qs) }},
			query{"equality", func() ([]uint32, error) { return ix.AppendEquality(nil, qs) }},
			query{"superset", func() ([]uint32, error) { return ix.AppendSuperset(nil, qs) }},
			query{"within", func() ([]uint32, error) { return ix.AppendSubsetWithin(nil, qs, cands) }})
	}
	rng := rand.New(rand.NewSource(5))
	all := make([]uint32, d.Len())
	for i := range all {
		all[i] = uint32(i + 1)
	}
	for len(others) < 200 {
		set := d.Record(rng.Intn(d.Len())).Set
		if len(set) < 2 {
			continue
		}
		qs := set[:1+rng.Intn(len(set))]
		others = append(others,
			query{"subset", func() ([]uint32, error) { return ix.AppendSubset(nil, qs) }},
			query{"equality", func() ([]uint32, error) { return ix.AppendEquality(nil, qs) }},
			query{"superset", func() ([]uint32, error) { return ix.AppendSuperset(nil, qs) }},
			query{"within", func() ([]uint32, error) { return ix.AppendSubsetWithin(nil, qs, all) }})
	}
	clean := make([][]uint32, len(others))
	for i, q := range others {
		if clean[i], err = q.run(); err != nil {
			t.Fatal(err)
		}
	}

	// The first posting after the head whose gap takes one byte.
	gapAt := -1
	for k := 1; k < len(ps) && gapAt < 0; k++ {
		if ps[k].ID-ps[k-1].ID < 0x80 {
			enc, err := vbyte.AppendPostings(nil, ps[:k], 0)
			if err != nil {
				t.Fatal(err)
			}
			gapAt = len(enc)
		}
	}
	if gapAt < 0 {
		t.Fatal("the block has no single-byte gap to zero")
	}
	base := cp.off
	for _, c := range []struct {
		name string
		off  int
		b    byte
		want error
	}{
		{"zero gap", gapAt, 0, vbyte.ErrNonMonotonic},
		{"value past the end", len(val) - 1, val[len(val)-1] | 0x80, vbyte.ErrTruncated},
	} {
		cp.off, cp.b, cp.armed = base+c.off, c.b, true
		for _, q := range visiting {
			if err := pool.DropAll(); err != nil {
				t.Fatal(err)
			}
			if got, err := q.run(); !errors.Is(err, c.want) {
				t.Errorf("%s: %s visiting the block returned %v (%d ids), want an error wrapping %v",
					c.name, q.name, err, len(got), c.want)
			}
		}
		failed := 0
		for i, q := range others {
			if err := pool.DropAll(); err != nil {
				t.Fatal(err)
			}
			got, err := q.run()
			switch {
			case errors.Is(err, c.want):
				failed++
			case err != nil:
				t.Errorf("%s: %s returned %v, want nil or an error wrapping %v", c.name, q.name, err, c.want)
			case !equalIDs(got, clean[i]):
				t.Errorf("%s: %s answered %d ids without an error, %d before the corruption",
					c.name, q.name, len(got), len(clean[i]))
			}
		}
		if failed == 0 {
			t.Errorf("%s: no query of the pool reached the block", c.name)
		}
		cp.armed = false
		if err := pool.DropAll(); err != nil {
			t.Fatal(err)
		}
	}
}

// corruptibleIndex builds the OIF of a 3 000-record synthetic dataset
// over a corruptPager, disarmed, and queries it through a 64-page pool.
func corruptibleIndex(t *testing.T) (*dataset.Dataset, *Index, *corruptPager, *storage.BufferPool) {
	t.Helper()
	d, err := dataset.GenerateSynthetic(dataset.DefaultSynthetic(3000))
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
	return d, ix, cp, pool
}

// locateBlock returns the page holding a list block's value bytes and
// their offset in it; the bytes must occur once across the pages.
func locateBlock(t *testing.T, cp *corruptPager, val []byte) (storage.PageID, int) {
	t.Helper()
	page := make([]byte, cp.PageSize())
	found, at, off := 0, storage.PageID(0), 0
	for id := storage.PageID(0); int64(id) < cp.NumPages(); id++ {
		if err := cp.Pager.ReadPage(id, page); err != nil {
			t.Fatal(err)
		}
		if n := bytes.Count(page, val); n > 0 {
			at, off, found = id, bytes.Index(page, val), found+n
		}
	}
	if found != 1 {
		t.Fatalf("the block's %d value bytes occur %d times across the pages, want once", len(val), found)
	}
	return at, off
}
