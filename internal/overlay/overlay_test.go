package overlay

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/dataset"
)

const (
	testDomain = 10
	testMerged = 100 // records the imaginary disk structures hold
)

// fixture is an overlay over testMerged merged records with pending
// records 101..105 — {1 2}, {2 3 4}, {}, {1 2}, {5} — and tombstones on
// two merged ids and on pending record 104.
func fixture(t *testing.T) *Overlay {
	t.Helper()
	var o Overlay
	for _, set := range [][]dataset.Item{{2, 1}, {4, 3, 2, 3}, {}, {1, 2}, {5}} {
		if _, err := o.Insert(set, testDomain, testMerged); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []uint32{40, 7, 104} {
		if err := o.Delete(id, testMerged); err != nil {
			t.Fatal(err)
		}
	}
	return &o
}

func TestOverlay(t *testing.T) {
	t.Run("insert and delete", func(t *testing.T) {
		var o Overlay
		steps := []struct {
			name    string
			insert  []dataset.Item // nil: the step is a delete
			delete  uint32
			wantID  uint32
			wantSet []dataset.Item
			wantErr bool
			domain  bool // the error must be dataset.ErrItemOutOfDomain
		}{
			{name: "first id follows the merged records", insert: []dataset.Item{3, 1, 3, 2}, wantID: 101, wantSet: []dataset.Item{1, 2, 3}},
			{name: "empty set", insert: []dataset.Item{}, wantID: 102, wantSet: []dataset.Item{}},
			{name: "out of domain", insert: []dataset.Item{1, testDomain}, wantErr: true, domain: true},
			{name: "refused insert consumed no id", insert: []dataset.Item{9}, wantID: 103, wantSet: []dataset.Item{9}},
			{name: "delete id 0", delete: 0, wantErr: true},
			{name: "delete past the delta", delete: 104, wantErr: true},
			{name: "delete merged", delete: 50},
			{name: "delete merged, lower id", delete: 3},
			{name: "delete pending", delete: 102},
			{name: "repeated delete", delete: 50, wantErr: true},
			{name: "repeated delete of pending", delete: 102, wantErr: true},
			{name: "ids are never reused", insert: []dataset.Item{0}, wantID: 104, wantSet: []dataset.Item{0}},
		}
		for _, s := range steps {
			if s.insert == nil {
				if err := o.Delete(s.delete, testMerged); (err != nil) != s.wantErr {
					t.Fatalf("%s: Delete(%d) = %v, want error %v", s.name, s.delete, err, s.wantErr)
				}
				continue
			}
			arg := slices.Clone(s.insert)
			id, err := o.Insert(arg, testDomain, testMerged)
			if (err != nil) != s.wantErr || (s.domain && !errors.Is(err, dataset.ErrItemOutOfDomain)) {
				t.Fatalf("%s: Insert = %d, %v", s.name, id, err)
			}
			if !slices.Equal(arg, s.insert) {
				t.Fatalf("%s: Insert reordered the caller's slice: %v", s.name, arg)
			}
			if err != nil {
				continue
			}
			if last := o.Pending()[o.Len()-1]; id != s.wantID || last.ID != id || !slices.Equal(last.Set, s.wantSet) {
				t.Fatalf("%s: id %d, stored %v; want id %d, set %v", s.name, id, last, s.wantID, s.wantSet)
			}
		}
		if o.Len() != 4 || o.Deleted() != 3 || !o.Dirty() {
			t.Fatalf("%d pending, %d deleted, dirty %v; want 4, 3, true", o.Len(), o.Deleted(), o.Dirty())
		}
		for id, want := range map[uint32]bool{3: true, 50: true, 102: true, 4: false, 101: false, 0: false} {
			if o.Dead(id) != want {
				t.Errorf("Dead(%d) = %v, want %v", id, !want, want)
			}
		}
	})

	t.Run("match sweeps skip tombstoned pending records", func(t *testing.T) {
		o := fixture(t)
		sweeps := []struct {
			pred Pred
			q    []dataset.Item
			want []uint32
		}{
			{ContainsAll, nil, []uint32{101, 102, 103, 105}},
			{ContainsAll, []dataset.Item{2}, []uint32{101, 102}},
			{ContainsAll, []dataset.Item{1, 2}, []uint32{101}}, // 104 = {1 2} is tombstoned
			{ContainsAll, []dataset.Item{9}, nil},
			{Equal, []dataset.Item{1, 2}, []uint32{101}},
			{Equal, nil, []uint32{103}},
			{Equal, []dataset.Item{2}, nil},
			{SubsetOf, []dataset.Item{1, 2, 5}, []uint32{101, 103, 105}},
			{SubsetOf, nil, []uint32{103}},
			{SubsetOf, []dataset.Item{1, 2, 3, 4}, []uint32{101, 102, 103}},
		}
		for _, s := range sweeps {
			got := o.AppendMatches([]uint32{9}, s.q, s.pred)
			if got[0] != 9 || !slices.Equal(got[1:], s.want) {
				t.Errorf("AppendMatches(pred %d, %v) = %v, want [9]+%v", s.pred, s.q, got, s.want)
			}
		}
		// The candidate-restricted form: only ids the caller already holds.
		cands := []uint32{7, 50, 102, 104, 105}
		if got := o.AppendMatchesWithin(nil, nil, cands); !slices.Equal(got, []uint32{102, 105}) {
			t.Errorf("AppendMatchesWithin(all, %v) = %v, want [102 105]", cands, got)
		}
		if got := o.AppendMatchesWithin(nil, []dataset.Item{2}, cands); !slices.Equal(got, []uint32{102}) {
			t.Errorf("AppendMatchesWithin({2}, %v) = %v, want [102]", cands, got)
		}
		if got := o.AppendMatchesWithin(nil, nil, nil); len(got) != 0 {
			t.Errorf("AppendMatchesWithin with no candidates = %v", got)
		}
	})

	t.Run("mask", func(t *testing.T) {
		o := fixture(t)
		ids := []uint32{1, 7, 8, 40, 41, 100}
		got := o.Mask(ids)
		if !slices.Equal(got, []uint32{1, 8, 41, 100}) || &got[0] != &ids[0] {
			t.Errorf("Mask = %v (in place: %v), want [1 8 41 100] in place", got, &got[0] == &ids[0])
		}
		var empty Overlay
		ids = []uint32{1, 7, 40}
		if got := empty.Mask(ids); !slices.Equal(got, []uint32{1, 7, 40}) {
			t.Errorf("Mask without tombstones = %v", got)
		}
	})

	t.Run("view is frozen under a concurrent writer", func(t *testing.T) {
		o := fixture(t)
		view := o.View()
		// The writer below posts to the lists of items 1 and 2, which
		// every one of these sweeps but the last walks in the view.
		type sweep struct {
			pred Pred
			q    []dataset.Item
		}
		sweeps := []sweep{
			{ContainsAll, nil}, {ContainsAll, []dataset.Item{2}}, {ContainsAll, []dataset.Item{1, 2}},
			{Equal, []dataset.Item{1, 2}}, {SubsetOf, []dataset.Item{1, 2, 5}}, {SubsetOf, []dataset.Item{5}},
		}
		var want [][]uint32
		for _, s := range sweeps {
			want = append(want, linearAppendMatches(&view, nil, s.q, s.pred))
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // the writer keeps inserting and deleting, pending and merged
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id, err := o.Insert([]dataset.Item{1, 2}, testDomain, testMerged)
				if err != nil {
					t.Error(err)
					return
				}
				victim := id
				if i == 0 {
					victim = 101 // a record the view holds
				}
				if err := o.Delete(victim, testMerged); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		for i := 0; i < 200; i++ {
			for j, s := range sweeps {
				if got := view.AppendMatches(nil, s.q, s.pred); !slices.Equal(got, want[j]) {
					t.Fatalf("view changed under the writer: pred %d over %v = %v, was %v", s.pred, s.q, got, want[j])
				}
			}
			if got := view.AppendMatchesWithin(nil, []dataset.Item{2}, []uint32{101, 102, 104, 150}); !slices.Equal(got, []uint32{101, 102}) {
				t.Fatalf("view's candidate probe moved: %v", got)
			}
			if view.Dead(101) || !view.Dead(104) || view.Len() != 5 || view.Deleted() != 3 {
				t.Fatalf("view saw a later delete or insert: %d pending, %d deleted", view.Len(), view.Deleted())
			}
			if got := view.Mask([]uint32{6, 7, 96}); !slices.Equal(got, []uint32{6, 96}) {
				t.Fatalf("view mask moved: %v", got)
			}
		}
		wg.Wait()
		if o.Len() != 205 || o.Deleted() != 203 {
			t.Fatalf("writer ended with %d pending, %d deleted", o.Len(), o.Deleted())
		}
	})

	t.Run("reset after merge", func(t *testing.T) {
		o := fixture(t)
		view := o.View()
		o.Merged()
		if o.Len() != 0 || o.Dirty() || o.Deleted() != 3 || !o.Dead(104) {
			t.Fatalf("after Merged: %d pending, dirty %v, %d deleted", o.Len(), o.Dirty(), o.Deleted())
		}
		if view.Len() != 5 {
			t.Fatalf("Merged reached into a view: %d pending", view.Len())
		}
		// The merge moved the five pending records to disk: ids go on.
		if id, err := o.Insert(nil, testDomain, testMerged+5); err != nil || id != 106 {
			t.Fatalf("insert after merge = %d, %v; want 106", id, err)
		}
		if err := o.Delete(105, testMerged+5); err != nil || !o.Dirty() {
			t.Fatalf("delete after merge: %v, dirty %v", err, o.Dirty())
		}
	})

	t.Run("section codec", func(t *testing.T) {
		for _, tc := range []struct {
			name string
			o    *Overlay
		}{{"pending and tombstones", fixture(t)}, {"empty sections", &Overlay{}}} {
			var recs, dead bytes.Buffer
			if err := tc.o.WriteRecords(&recs); err != nil {
				t.Fatal(err)
			}
			if err := tc.o.WriteTombstones(&dead); err != nil {
				t.Fatal(err)
			}
			var back Overlay
			// Either order: the two formats disagree on it.
			if err := back.ReadTombstones(bytes.NewReader(dead.Bytes()), tc.o.Dirty()); err != nil {
				t.Fatal(err)
			}
			if err := back.ReadRecords(bytes.NewReader(recs.Bytes()), testDomain, testMerged); err != nil {
				t.Fatal(err)
			}
			if back.Len() != tc.o.Len() || back.Deleted() != tc.o.Deleted() || back.Dirty() != tc.o.Dirty() {
				t.Fatalf("%s: decoded %d/%d/%v, want %d/%d/%v", tc.name,
					back.Len(), back.Deleted(), back.Dirty(), tc.o.Len(), tc.o.Deleted(), tc.o.Dirty())
			}
			for i, r := range tc.o.Pending() {
				if b := back.Pending()[i]; b.ID != r.ID || !slices.Equal(b.Set, r.Set) || back.Dead(r.ID) != tc.o.Dead(r.ID) {
					t.Fatalf("%s: record %d decoded as %v, want %v", tc.name, i, b, r)
				}
			}
			var recs2, dead2 bytes.Buffer
			if err := errors.Join(back.WriteRecords(&recs2), back.WriteTombstones(&dead2)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(recs2.Bytes(), recs.Bytes()) || !bytes.Equal(dead2.Bytes(), dead.Bytes()) {
				t.Fatalf("%s: re-encoding differs", tc.name)
			}
			// A section cut short is an error, never a short overlay.
			for cut := 0; cut < recs.Len(); cut++ {
				if err := new(Overlay).ReadRecords(bytes.NewReader(recs.Bytes()[:cut]), testDomain, testMerged); err == nil {
					t.Fatalf("%s: records section truncated to %d bytes decoded", tc.name, cut)
				}
			}
			for cut := 0; cut < dead.Len(); cut++ {
				if err := new(Overlay).ReadTombstones(bytes.NewReader(dead.Bytes()[:cut]), false); err == nil {
					t.Fatalf("%s: tombstone section truncated to %d bytes decoded", tc.name, cut)
				}
			}
		}
		// A count past the bound is refused before anything is read.
		huge := bytes.NewReader([]byte{0, 0, 0, 0, 1, 0, 0, 0})
		if err := new(Overlay).ReadRecords(io.MultiReader(huge, neverEnds{}), testDomain, testMerged); err == nil {
			t.Fatal("a 2^32-record section was accepted")
		}
		// Records Insert could not have produced are refused: the posting
		// lists and the next merge index by their items and ids.
		for name, hostile := range map[string][]dataset.Record{
			"item outside the domain": {{ID: 101, Set: []dataset.Item{1, testDomain}}},
			"unsorted set":            {{ID: 101, Set: []dataset.Item{1}}, {ID: 102, Set: []dataset.Item{2, 1}}},
			"repeated item":           {{ID: 101, Set: []dataset.Item{1, 1}}},
			"id out of sequence":      {{ID: 101, Set: []dataset.Item{1}}, {ID: 103, Set: []dataset.Item{2}}},
			"id of a merged record":   {{ID: testMerged, Set: []dataset.Item{1}}},
		} {
			var sec bytes.Buffer
			if err := (&Overlay{pending: hostile}).WriteRecords(&sec); err != nil {
				t.Fatal(err)
			}
			if err := new(Overlay).ReadRecords(&sec, testDomain, testMerged); err == nil {
				t.Errorf("a records section with an %s was accepted", name)
			}
		}
	})
}

// The linear sweeps the posting lists replaced, kept as the oracle the
// differential test and the benchmark hold the lists against.

func linearAppendMatches(o *Overlay, dst []uint32, q []dataset.Item, pred Pred) []uint32 {
	for _, r := range o.pending {
		if o.Dead(r.ID) {
			continue
		}
		var ok bool
		switch pred {
		case ContainsAll:
			ok = r.ContainsAll(q)
		case Equal:
			ok = r.EqualSet(q)
		default:
			ok = r.SubsetOf(q)
		}
		if ok {
			dst = append(dst, r.ID)
		}
	}
	return dst
}

func linearAppendMatchesWithin(o *Overlay, dst []uint32, q []dataset.Item, cands []uint32) []uint32 {
	for _, r := range o.pending {
		if o.Dead(r.ID) || !r.ContainsAll(q) {
			continue
		}
		if _, ok := slices.BinarySearch(cands, r.ID); ok {
			dst = append(dst, r.ID)
		}
	}
	return dst
}

// TestOverlayAgainstLinearSweep replays a seeded random history —
// inserts (empty and repeated sets among them), deletes of merged and
// pending ids, merges, snapshot round trips — and after every step holds
// each sweep of the overlay, and of a view of it, against the linear
// oracle: id for id, ascending.
func TestOverlayAgainstLinearSweep(t *testing.T) {
	const (
		domain = 24
		used   = 20 // items from here up are never inserted: no list
	)
	rng := rand.New(rand.NewSource(19))
	zipf := dataset.NewZipf(used, 0.8)
	randomSet := func(k int) []dataset.Item {
		set := zipf.SampleDistinct(rng, k)
		slices.Sort(set)
		return set
	}
	check := func(step int, o *Overlay, merged int) {
		t.Helper()
		if !slices.IsSorted(o.dead) {
			t.Fatalf("step %d: tombstones unsorted", step)
		}
		for _, k := range []int{0, 1, 2, 8} {
			qs := [][]dataset.Item{randomSet(k)}
			if k > 0 {
				unlisted := slices.Clone(qs[0])
				unlisted[k-1] = dataset.Item(used + rng.Intn(domain-used))
				qs = append(qs, unlisted)
				if n := o.Len(); n > 0 { // a pending record's own items: equality and subset hits
					set := o.Pending()[rng.Intn(n)].Set
					qs = append(qs, set[:min(k, len(set))])
				}
			}
			for _, q := range qs {
				for _, pred := range []Pred{ContainsAll, Equal, SubsetOf} {
					got, want := o.AppendMatches([]uint32{9}, q, pred), linearAppendMatches(o, []uint32{9}, q, pred)
					if !slices.Equal(got, want) {
						t.Fatalf("step %d: AppendMatches(pred %d, %v) = %v, oracle %v", step, pred, q, got, want)
					}
				}
				var cands []uint32
				for id := 1; id <= merged+o.Len()+2; id++ {
					if rng.Intn(3) == 0 {
						cands = append(cands, uint32(id))
					}
				}
				if got, want := o.AppendMatchesWithin(nil, q, cands), linearAppendMatchesWithin(o, nil, q, cands); !slices.Equal(got, want) {
					t.Fatalf("step %d: AppendMatchesWithin(%v, %v) = %v, oracle %v", step, q, cands, got, want)
				}
			}
		}
	}

	var o Overlay
	merged := 50
	check(-1, &o, merged)
	for step := 0; step < 400; step++ {
		switch op := rng.Intn(20); {
		case op < 11:
			set := randomSet(rng.Intn(6))
			if n := o.Len(); n > 0 && rng.Intn(4) == 0 {
				set = o.Pending()[rng.Intn(n)].Set // a duplicate
			}
			if _, err := o.Insert(set, domain, merged); err != nil {
				t.Fatal(err)
			}
		case op < 16:
			id := uint32(1 + rng.Intn(merged+o.Len()))
			if err := o.Delete(id, merged); err != nil && !o.Dead(id) {
				t.Fatal(err)
			}
		case op < 17:
			merged += o.Len()
			o.Merged()
		default:
			var recs, dead bytes.Buffer
			if err := errors.Join(o.WriteRecords(&recs), o.WriteTombstones(&dead)); err != nil {
				t.Fatal(err)
			}
			var back Overlay
			if err := errors.Join(back.ReadRecords(&recs, domain, merged), back.ReadTombstones(&dead, o.Dirty())); err != nil {
				t.Fatal(err)
			}
			o = back
		}
		check(step, &o, merged)
		if step%16 == 0 {
			view := o.View()
			for i := 0; i < 3; i++ { // the writer moves on; the view must not
				if _, err := o.Insert(randomSet(1+rng.Intn(3)), domain, merged); err != nil {
					t.Fatal(err)
				}
			}
			check(step, &view, merged)
		}
	}
}

// benchDelta is the delta BenchmarkOverlayMatches and the allocation
// test run over: n pending Zipf(0.8) sets of 2–20 of 2 000 items, every
// eighth tombstoned, and per predicate a pool of queries that have
// answers — a few items of a pending record, a whole record, a record
// widened by ten more items. A larger delta extends a smaller one and
// is asked the same queries, so timings at two sizes compare.
func benchDelta(tb testing.TB, n int) (*Overlay, map[Pred][][]dataset.Item) {
	tb.Helper()
	const (
		domain = 2000
		merged = 100000
	)
	rng := rand.New(rand.NewSource(1))
	zipf := dataset.NewZipf(domain, 0.8)
	var o Overlay
	for i := 0; i < n; i++ {
		id, err := o.Insert(zipf.SampleDistinct(rng, 2+rng.Intn(19)), domain, merged)
		if err != nil {
			tb.Fatal(err)
		}
		if i%8 == 7 {
			if err := o.Delete(id, merged); err != nil {
				tb.Fatal(err)
			}
		}
	}
	queries := map[Pred][][]dataset.Item{}
	rng = rand.New(rand.NewSource(2))
	for i := 0; i < 64; i++ {
		set := o.Pending()[rng.Intn(min(n, 4800))].Set
		few := slices.Clone(set)
		rng.Shuffle(len(few), func(i, j int) { few[i], few[j] = few[j], few[i] })
		few = few[:min(len(few), 2+rng.Intn(2))]
		slices.Sort(few)
		wide := append(zipf.SampleDistinct(rng, 10), set...)
		slices.Sort(wide)
		queries[ContainsAll] = append(queries[ContainsAll], few)
		queries[Equal] = append(queries[Equal], set)
		queries[SubsetOf] = append(queries[SubsetOf], slices.Compact(wide))
	}
	return &o, queries
}

// BenchmarkOverlayMatches times the three sweeps over the posting lists
// beside the linear oracle, at the delta benchmark/'s durable_rw
// preloads and at four times that. The shortest list still grows with
// the delta; the claim is the ratio to the sweep.
func BenchmarkOverlayMatches(b *testing.B) {
	impls := []struct {
		name string
		f    func(*Overlay, []uint32, []dataset.Item, Pred) []uint32
	}{{"lists", (*Overlay).AppendMatches}, {"linear", linearAppendMatches}}
	for _, n := range []int{4800, 19200} {
		o, queries := benchDelta(b, n)
		for pred, name := range []string{"subset", "equality", "superset"} {
			qs := queries[Pred(pred)]
			for _, impl := range impls {
				b.Run(fmt.Sprintf("pending=%d/%s/%s", n, name, impl.name), func(b *testing.B) {
					b.ReportAllocs()
					dst := make([]uint32, 0, n)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						dst = impl.f(o, dst[:0], qs[i%len(qs)], Pred(pred))
					}
				})
			}
		}
	}
}

// neverEnds would keep a decoder that trusted a huge count busy forever.
type neverEnds struct{}

func (neverEnds) Read(p []byte) (int, error) { clear(p); return len(p), nil }
