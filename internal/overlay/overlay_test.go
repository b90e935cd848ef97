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
	"repro/internal/snapio"
)

const (
	testDomain = 10
	testMerged = 100 // records the imaginary disk structures hold
)

// fixture is an overlay over testMerged merged records with pending
// records 101..105 — {1 2}, {2 3 4}, {}, {1 2}, {5} — and tombstones on
// two merged ids and on pending record 104.
func fixture(t testing.TB) *Overlay {
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
		frozen := &linearSweep{o: &view, dead: []uint32{7, 40, 104}} // fixture's tombstones
		var want [][]uint32
		for _, s := range sweeps {
			want = append(want, frozen.appendMatches(nil, s.q, s.pred))
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
			// Each format fixes its own order of the two sections.
			for _, layout := range []Layout{RecordsFirst, TombstonesFirst} {
				var sec bytes.Buffer
				if err := tc.o.WriteSections(&sec, layout); err != nil {
					t.Fatal(err)
				}
				var back Overlay
				if err := back.ReadSections(bytes.NewReader(sec.Bytes()), layout, testDomain, testMerged, tc.o.Dirty()); err != nil {
					t.Fatal(err)
				}
				if back.Len() != tc.o.Len() || back.Deleted() != tc.o.Deleted() || back.Dirty() != tc.o.Dirty() {
					t.Fatalf("%s, layout %d: decoded %d/%d/%v, want %d/%d/%v", tc.name, layout,
						back.Len(), back.Deleted(), back.Dirty(), tc.o.Len(), tc.o.Deleted(), tc.o.Dirty())
				}
				for id := uint32(0); id <= testMerged+uint32(tc.o.Len())+1; id++ {
					if back.Dead(id) != tc.o.Dead(id) {
						t.Fatalf("%s, layout %d: Dead(%d) decoded as %v", tc.name, layout, id, back.Dead(id))
					}
				}
				for i, r := range tc.o.Pending() {
					if b := back.Pending()[i]; b.ID != r.ID || !slices.Equal(b.Set, r.Set) {
						t.Fatalf("%s, layout %d: record %d decoded as %v, want %v", tc.name, layout, i, b, r)
					}
				}
				var sec2 bytes.Buffer
				if err := back.WriteSections(&sec2, layout); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(sec2.Bytes(), sec.Bytes()) {
					t.Fatalf("%s, layout %d: re-encoding differs", tc.name, layout)
				}
				// Sections cut short are an error, never a short overlay.
				for cut := 0; cut < sec.Len(); cut++ {
					if err := new(Overlay).ReadSections(bytes.NewReader(sec.Bytes()[:cut]), layout, testDomain, testMerged, false); err == nil {
						t.Fatalf("%s, layout %d: sections truncated to %d bytes decoded", tc.name, layout, cut)
					}
				}
			}
		}
		// The tombstone section is the ids, ascending, as one u32 slice:
		// the bytes the golden snapshots pin.
		var got, want bytes.Buffer
		if err := errors.Join(fixture(t).writeTombstones(&got), snapio.WriteU32Slice(&want, []uint32{7, 40, 104})); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("tombstone section %x, want %x", got.Bytes(), want.Bytes())
		}
		// A count past the bound is refused before anything is read.
		huge := bytes.NewReader([]byte{0, 0, 0, 0, 1, 0, 0, 0})
		if err := new(Overlay).ReadSections(io.MultiReader(huge, neverEnds{}), RecordsFirst, testDomain, testMerged, false); err == nil {
			t.Fatal("a 2^32-record section was accepted")
		}
		// Records Insert could not have produced, and tombstones Delete
		// could not have, are refused: the posting lists, the bitmap and
		// the next merge index by their items and ids. The hostile
		// tombstones sit beside the two pending records 101 and 102.
		pending := []dataset.Record{{ID: 101, Set: []dataset.Item{1}}, {ID: 102, Set: []dataset.Item{2}}}
		for _, h := range []struct {
			name    string
			pending []dataset.Record
			dead    []uint32
		}{
			{"item outside the domain", []dataset.Record{{ID: 101, Set: []dataset.Item{1, testDomain}}}, nil},
			{"unsorted set", []dataset.Record{{ID: 101, Set: []dataset.Item{1}}, {ID: 102, Set: []dataset.Item{2, 1}}}, nil},
			{"repeated item", []dataset.Record{{ID: 101, Set: []dataset.Item{1, 1}}}, nil},
			{"id out of sequence", []dataset.Record{{ID: 101, Set: []dataset.Item{1}}, {ID: 103, Set: []dataset.Item{2}}}, nil},
			{"id of a merged record", []dataset.Record{{ID: testMerged, Set: []dataset.Item{1}}}, nil},
			{"unsorted tombstones", pending, []uint32{40, 7}},
			{"repeated tombstone", pending, []uint32{7, 7}},
			{"tombstone on id 0", pending, []uint32{0, 7}},
			{"tombstone past the pending records", pending, []uint32{7, 103}},
			{"tombstone near 2^32", pending, []uint32{7, 1<<32 - 1}},
		} {
			for _, layout := range []Layout{RecordsFirst, TombstonesFirst} {
				var sec bytes.Buffer
				if err := hostileSections(&sec, layout, h.pending, h.dead); err != nil {
					t.Fatal(err)
				}
				if err := new(Overlay).ReadSections(&sec, layout, testDomain, testMerged, true); err == nil {
					t.Errorf("layout %d: sections with a %s were accepted", layout, h.name)
				}
			}
		}
		// The last id there is may be tombstoned, and nothing past it.
		var edge bytes.Buffer
		if err := hostileSections(&edge, RecordsFirst, pending, []uint32{1, 102}); err != nil {
			t.Fatal(err)
		}
		var o Overlay
		if err := o.ReadSections(&edge, RecordsFirst, testDomain, testMerged, true); err != nil || !o.Dead(1) || !o.Dead(102) || o.Deleted() != 2 {
			t.Fatalf("tombstones on ids 1 and 102: %v, Deleted %d", err, o.Deleted())
		}
	})
}

// hostileSections writes the two overlay sections in layout's order as
// a snapshot would hold them, for records and tombstones no Insert or
// Delete produced.
func hostileSections(w io.Writer, layout Layout, pending []dataset.Record, dead []uint32) error {
	var recs bytes.Buffer
	if err := (&Overlay{pending: pending}).writeRecords(&recs); err != nil {
		return err
	}
	var tombs bytes.Buffer
	if err := snapio.WriteU32Slice(&tombs, dead); err != nil {
		return err
	}
	sections := [][]byte{recs.Bytes(), tombs.Bytes()}
	if layout == TombstonesFirst {
		slices.Reverse(sections)
	}
	_, err := w.Write(slices.Concat(sections...))
	return err
}

// linearSweep is the oracle the differential test and the benchmark
// hold the overlay against: the linear sweeps the posting lists
// replaced, over the overlay's pending records, and a sorted tombstone
// list of its own, kept by the test as it deletes, so a defect in the
// bitmap cannot hide in the oracle too.
type linearSweep struct {
	o    *Overlay
	dead []uint32 // ascending
}

func (s *linearSweep) delete(id uint32) {
	if i, found := slices.BinarySearch(s.dead, id); !found {
		s.dead = slices.Insert(s.dead, i, id)
	}
}

func (s *linearSweep) isDead(id uint32) bool {
	_, found := slices.BinarySearch(s.dead, id)
	return found
}

func (s *linearSweep) appendMatches(dst []uint32, q []dataset.Item, pred Pred) []uint32 {
	for _, r := range s.o.pending {
		if s.isDead(r.ID) {
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

func (s *linearSweep) appendMatchesWithin(dst []uint32, q []dataset.Item, cands []uint32) []uint32 {
	for _, r := range s.o.pending {
		if s.isDead(r.ID) || !r.ContainsAll(q) {
			continue
		}
		if _, ok := slices.BinarySearch(cands, r.ID); ok {
			dst = append(dst, r.ID)
		}
	}
	return dst
}

func (s *linearSweep) mask(ids []uint32) []uint32 {
	kept := ids[:0]
	for _, id := range ids {
		if !s.isDead(id) {
			kept = append(kept, id)
		}
	}
	return kept
}

// TestOverlayAgainstLinearSweep replays a seeded random history —
// inserts (empty and repeated sets among them), deletes of merged and
// pending ids, merges, snapshot round trips — and after every step holds
// each sweep of the overlay, its Dead and its Mask, and those of a view
// of it, against the oracle: id for id, ascending.
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
	check := func(step int, o *Overlay, oracle *linearSweep, merged int) {
		t.Helper()
		// The bitmap's own invariants: it counts its bits, and sets none
		// for id 0 or past the last id handed out.
		n := merged + o.Len()
		set := o.dead.appendIDs(nil)
		for _, id := range set {
			if id == 0 || int(id) > n {
				t.Fatalf("step %d: tombstone bit %d outside ids 1..%d", step, id, n)
			}
		}
		if len(set) != o.Deleted() || len(set) != len(oracle.dead) {
			t.Fatalf("step %d: %d bits, Deleted %d, oracle %d", step, len(set), o.Deleted(), len(oracle.dead))
		}
		if noChunk != (idChunk{}) {
			t.Fatalf("step %d: the shared empty chunk holds a bit", step)
		}
		var ids []uint32
		for id := uint32(0); id <= uint32(n)+70; id++ {
			if o.Dead(id) != oracle.isDead(id) {
				t.Fatalf("step %d: Dead(%d) = %v, oracle %v", step, id, o.Dead(id), oracle.isDead(id))
			}
			if id > 0 && rng.Intn(2) == 0 {
				ids = append(ids, id)
			}
		}
		if got, want := o.Mask(slices.Clone(ids)), oracle.mask(slices.Clone(ids)); !slices.Equal(got, want) {
			t.Fatalf("step %d: Mask(%v) = %v, oracle %v", step, ids, got, want)
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
					got, want := o.AppendMatches([]uint32{9}, q, pred), oracle.appendMatches([]uint32{9}, q, pred)
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
				if got, want := o.AppendMatchesWithin(nil, q, cands), oracle.appendMatchesWithin(nil, q, cands); !slices.Equal(got, want) {
					t.Fatalf("step %d: AppendMatchesWithin(%v, %v) = %v, oracle %v", step, q, cands, got, want)
				}
			}
		}
	}

	var o Overlay
	oracle := &linearSweep{o: &o}
	merged := 50
	// del deletes a random merged or pending id from o and the oracle.
	del := func() {
		id := uint32(1 + rng.Intn(merged+o.Len()))
		if err := o.Delete(id, merged); err != nil {
			if !oracle.isDead(id) {
				t.Fatal(err)
			}
			return
		}
		if oracle.isDead(id) {
			t.Fatalf("Delete(%d) of a tombstoned id succeeded", id)
		}
		oracle.delete(id)
	}
	check(-1, &o, oracle, merged)
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
			del()
		case op < 17:
			merged += o.Len()
			o.Merged()
		default:
			layout := Layout(rng.Intn(2))
			var sec bytes.Buffer
			if err := o.WriteSections(&sec, layout); err != nil {
				t.Fatal(err)
			}
			var back Overlay
			if err := back.ReadSections(&sec, layout, domain, merged, o.Dirty()); err != nil {
				t.Fatal(err)
			}
			o = back
		}
		check(step, &o, oracle, merged)
		if step%16 == 0 {
			view := o.View()
			frozen := &linearSweep{o: &view, dead: slices.Clone(oracle.dead)}
			for i := 0; i < 3; i++ { // the writer moves on; the view must not
				if _, err := o.Insert(randomSet(1+rng.Intn(3)), domain, merged); err != nil {
					t.Fatal(err)
				}
				del()
			}
			check(step, &view, frozen, merged)
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
// the delta; the claim is the ratio to the sweep. The mask rows time
// Mask over every seventh merged and pending id, into a fresh copy per
// call (the copy is in the time), against the oracle's binary search
// over the sorted tombstones.
func BenchmarkOverlayMatches(b *testing.B) {
	for _, n := range []int{4800, 19200} {
		o, queries := benchDelta(b, n)
		oracle := &linearSweep{o: o}
		for _, r := range o.Pending() {
			if o.Dead(r.ID) {
				oracle.delete(r.ID)
			}
		}
		impls := []struct {
			name string
			f    func([]uint32, []dataset.Item, Pred) []uint32
		}{{"lists", o.AppendMatches}, {"linear", oracle.appendMatches}}
		for pred, name := range []string{"subset", "equality", "superset"} {
			qs := queries[Pred(pred)]
			for _, impl := range impls {
				b.Run(fmt.Sprintf("pending=%d/%s/%s", n, name, impl.name), func(b *testing.B) {
					b.ReportAllocs()
					dst := make([]uint32, 0, n)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						dst = impl.f(dst[:0], qs[i%len(qs)], Pred(pred))
					}
				})
			}
		}
		ids := maskIDs(o)
		for _, impl := range []struct {
			name string
			f    func([]uint32) []uint32
		}{{"bitmap", o.Mask}, {"sorted", oracle.mask}} {
			b.Run(fmt.Sprintf("pending=%d/mask/%s", n, impl.name), func(b *testing.B) {
				b.ReportAllocs()
				buf := make([]uint32, len(ids))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					impl.f(append(buf[:0], ids...))
				}
			})
		}
	}
}

// maskIDs is the answer the mask rows of the benchmark and of the
// allocation test filter: every seventh id of o's merged and pending
// records, ascending.
func maskIDs(o *Overlay) []uint32 {
	var ids []uint32
	for id := uint32(1); id <= o.Pending()[o.Len()-1].ID; id += 7 {
		ids = append(ids, id)
	}
	return ids
}

// FuzzOverlaySections feeds ReadSections arbitrary bytes in either
// layout. Whatever it accepts must re-serialise byte for byte, and Dead
// must agree with a linear scan of the tombstone section as read
// independently here; it must never report an id the section does not
// name, nor accept one past the records.
func FuzzOverlaySections(f *testing.F) {
	for _, layout := range []Layout{RecordsFirst, TombstonesFirst} {
		for _, o := range []*Overlay{fixture(f), {}} {
			var sec bytes.Buffer
			if err := o.WriteSections(&sec, layout); err != nil {
				f.Fatal(err)
			}
			f.Add(sec.Bytes(), layout == TombstonesFirst)
		}
		pending := []dataset.Record{{ID: 101, Set: []dataset.Item{1}}, {ID: 102}}
		for _, dead := range [][]uint32{{40, 7}, {7, 7}, {0}, {103}, {1<<32 - 1}} {
			var sec bytes.Buffer
			if err := hostileSections(&sec, layout, pending, dead); err != nil {
				f.Fatal(err)
			}
			f.Add(sec.Bytes(), layout == TombstonesFirst)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, tombstonesFirst bool) {
		layout := RecordsFirst
		if tombstonesFirst {
			layout = TombstonesFirst
		}
		r := bytes.NewReader(data)
		var o Overlay
		if err := o.ReadSections(r, layout, testDomain, testMerged, false); err != nil {
			return
		}
		used := data[:len(data)-r.Len()]
		var again bytes.Buffer
		if err := o.WriteSections(&again, layout); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), used) {
			t.Fatalf("accepted %x, re-serialised as %x", used, again.Bytes())
		}
		// The tombstone section, read past the records when they come first.
		sec := bytes.NewReader(used)
		if !tombstonesFirst {
			n, _ := snapio.ReadU64(sec)
			for ; n > 0; n-- {
				snapio.ReadU32(sec)
				snapio.ReadU32Slice(sec)
			}
		}
		dead, err := snapio.ReadU32Slice(sec)
		if err != nil {
			t.Fatal(err)
		}
		last := uint32(testMerged + o.Len())
		for _, id := range dead {
			if id == 0 || id > last {
				t.Fatalf("accepted tombstone %d outside ids 1..%d", id, last)
			}
		}
		if o.Deleted() != len(dead) {
			t.Fatalf("Deleted %d of a %d-id section", o.Deleted(), len(dead))
		}
		for id := uint32(0); id <= last+64; id++ {
			if o.Dead(id) != slices.Contains(dead, id) {
				t.Fatalf("Dead(%d) = %v for tombstones %v", id, o.Dead(id), dead)
			}
		}
	})
}

// neverEnds would keep a decoder that trusted a huge count busy forever.
type neverEnds struct{}

func (neverEnds) Read(p []byte) (int, error) { clear(p); return len(p), nil }

// TestTombstoneChunks deletes ids across many bitmap chunks — both ends
// of a chunk, the first and the last id, chunks left empty between —
// and holds Dead, a snapshot round trip and views taken along the way
// to the set of ids deleted up to each point.
func TestTombstoneChunks(t *testing.T) {
	const merged = 200000
	ids := []uint32{4096, 4095, 1, merged, 4097, 8191, 8192, 150001, 2, 12288}
	rng := rand.New(rand.NewSource(7))
	for len(ids) < 300 {
		id := uint32(1 + rng.Intn(merged))
		if !slices.Contains(ids, id) {
			ids = append(ids, id)
		}
	}
	check := func(o *Overlay, dead []uint32) {
		t.Helper()
		if o.Deleted() != len(dead) {
			t.Fatalf("Deleted %d, want %d", o.Deleted(), len(dead))
		}
		for _, id := range []uint32{0, 4095, 4096, 4097, 8192, merged, merged + 1, 1 << 20} {
			if got, want := o.Dead(id), slices.Contains(dead, id); got != want {
				t.Fatalf("%d tombstones: Dead(%d) = %v, want %v", len(dead), id, got, want)
			}
		}
		for _, id := range dead {
			if !o.Dead(id) {
				t.Fatalf("%d tombstones: Dead(%d) = false", len(dead), id)
			}
		}
		if got, want := o.dead.appendIDs(nil), slices.Sorted(slices.Values(dead)); !slices.Equal(got, want) {
			t.Fatalf("%d tombstones: bitmap holds %d ids, want %d", len(dead), len(got), len(want))
		}
	}
	var o Overlay
	type frozen struct {
		view Overlay
		dead []uint32
	}
	var views []frozen
	for i, id := range ids {
		if err := o.Delete(id, merged); err != nil {
			t.Fatal(err)
		}
		if i%25 == 0 {
			views = append(views, frozen{o.View(), slices.Clone(ids[:i+1])})
		}
	}
	check(&o, ids)
	for _, v := range views {
		check(&v.view, v.dead)
	}
	var sec bytes.Buffer
	if err := o.WriteSections(&sec, RecordsFirst); err != nil {
		t.Fatal(err)
	}
	var back Overlay
	if err := back.ReadSections(&sec, RecordsFirst, testDomain, merged, true); err != nil {
		t.Fatal(err)
	}
	check(&back, ids)
	if err := back.Delete(3, merged); err != nil { // a read set is copied on write too
		t.Fatal(err)
	}
	check(&back, append(slices.Clone(ids), 3))
	check(&o, ids)
}
