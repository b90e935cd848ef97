package sequence

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
)

func TestNewOrderByFrequency(t *testing.T) {
	// supports: item0=5, item1=9, item2=9, item3=1
	ord := NewOrder([]int64{5, 9, 9, 1})
	// Expected <_D: 1 (sup 9), 2 (sup 9, tie by id), 0 (sup 5), 3 (sup 1).
	wantRank := map[dataset.Item]Rank{1: 0, 2: 1, 0: 2, 3: 3}
	for it, want := range wantRank {
		got, err := ord.Rank(it)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("Rank(%d) = %d, want %d", it, got, want)
		}
		if ord.Item(want) != it {
			t.Errorf("Item(%d) = %d, want %d", want, ord.Item(want), it)
		}
	}
	if ord.MaxRank() != 3 {
		t.Errorf("MaxRank = %d", ord.MaxRank())
	}
}

func TestRankOutOfDomain(t *testing.T) {
	ord := NewOrder([]int64{1, 2})
	if _, err := ord.Rank(2); err == nil {
		t.Fatal("out-of-domain rank succeeded")
	}
}

// sequenceForm is the reference conversion of an item set to its
// sequence form — the ranks sorted ascending (Def. 1) — that Reorder's
// arena is held to.
func sequenceForm(o *Order, set []dataset.Item) ([]Rank, error) {
	sf := make([]Rank, len(set))
	for i, it := range set {
		r, err := o.Rank(it)
		if err != nil {
			return nil, err
		}
		sf[i] = r
	}
	sort.Slice(sf, func(i, j int) bool { return sf[i] < sf[j] })
	return sf, nil
}

func TestSequenceFormPaperExample(t *testing.T) {
	// Reproduce the paper's Fig. 1 -> Fig. 3 ordering. Supports from
	// Fig. 1: a=12, b=9, c=8, d=6, e=2, f=3, g=2, h=2, i=2, j=2.
	// Items a..j as 0..9. <_D: a,b,c,d,f,e,g,h,i,j (f support 3 beats the
	// support-2 group; ties by alphabetic/id order).
	sup := []int64{12, 9, 8, 6, 2, 3, 2, 2, 2, 2}
	ord := NewOrder(sup)
	wantSeq := []dataset.Item{0, 1, 2, 3, 5, 4, 6, 7, 8, 9} // a b c d f e g h i j
	for r, it := range wantSeq {
		if ord.Item(Rank(r)) != it {
			t.Fatalf("rank %d = item %d, want %d", r, ord.Item(Rank(r)), it)
		}
	}
	// Record 101 = {g, b, a, d} -> sf = a,b,d,g = ranks 0,1,3,6.
	sf, err := sequenceForm(ord, []dataset.Item{6, 1, 0, 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []Rank{0, 1, 3, 6}
	if len(sf) != len(want) {
		t.Fatalf("sf = %v, want %v", sf, want)
	}
	for i := range want {
		if sf[i] != want[i] {
			t.Fatalf("sf = %v, want %v", sf, want)
		}
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b []Rank
		want int
	}{
		{nil, nil, 0},
		{nil, []Rank{0}, -1},
		{[]Rank{0}, nil, 1},
		{[]Rank{0, 1}, []Rank{0, 1}, 0},
		{[]Rank{0, 1}, []Rank{0, 2}, -1},
		{[]Rank{0, 1}, []Rank{0, 1, 5}, -1}, // prefix smaller
		{[]Rank{1}, []Rank{0, 9, 9}, 1},
		{[]Rank{0, 1, 2}, []Rank{0, 1}, 1},
	}
	for _, tc := range cases {
		if got := Compare(tc.a, tc.b); got != tc.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
		if got := Compare(tc.b, tc.a); got != -tc.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", tc.b, tc.a, got, -tc.want)
		}
	}
}

// TestTagOrderPreservation is the load-bearing property of the whole OIF
// key design: bytewise order of encoded tags == Compare order of the
// sequences.
func TestTagOrderPreservation(t *testing.T) {
	f := func(aRaw, bRaw []uint16) bool {
		a := make([]Rank, len(aRaw))
		for i, v := range aRaw {
			a[i] = Rank(v)
		}
		b := make([]Rank, len(bRaw))
		for i, v := range bRaw {
			b[i] = Rank(v)
		}
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		ea := AppendTag(nil, a)
		eb := AppendTag(nil, b)
		return sign(bytes.Compare(ea, eb)) == sign(Compare(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestTagRoundTrip(t *testing.T) {
	sf := []Rank{0, 7, 300, 1 << 20}
	enc := AppendTag(nil, sf)
	if len(enc) != TagLen(len(sf)) {
		t.Fatalf("encoded %d bytes, want %d", len(enc), TagLen(len(sf)))
	}
	got, n, err := AppendDecodedTag(nil, enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d bytes", n, len(enc))
	}
	for i := range sf {
		if got[i] != sf[i] {
			t.Fatalf("round trip %v -> %v", sf, got)
		}
	}
	if _, _, err := AppendDecodedTag(nil, enc[:len(enc)-1]); err == nil {
		t.Fatal("unterminated tag decoded")
	}
	if _, _, err := AppendDecodedTag(nil, []byte{0x02}); err == nil {
		t.Fatal("bad marker byte decoded")
	}
}

// TestTagSelfDelimitingInCompositeKeys reproduces the exact ambiguity the
// marked encoding exists to prevent: with fixed-width tags, the composite
// keys (tag=(5), id=7) and (tag=(5,6), id=9) would compare in the wrong
// order because 7 > 6 at the third word. The marked encoding must order
// them by tag first.
func TestTagSelfDelimitingInCompositeKeys(t *testing.T) {
	mk := func(sf []Rank, id uint32) []byte {
		k := AppendTag(nil, sf)
		return append(k, byte(id>>24), byte(id>>16), byte(id>>8), byte(id))
	}
	a := mk([]Rank{5}, 7)
	b := mk([]Rank{5, 6}, 9)
	if bytes.Compare(a, b) >= 0 {
		t.Fatalf("composite key with shorter tag must sort first: %x vs %x", a, b)
	}
	// Equal tags: the id breaks the tie.
	c := mk([]Rank{5, 6}, 8)
	if bytes.Compare(c, b) >= 0 {
		t.Fatal("equal tags must order by id")
	}
}

// TestTagAppendDecodeProperty: random sequences round trip and order holds
// even with arbitrary suffix bytes appended after the tag.
func TestTagAppendDecodeProperty(t *testing.T) {
	f := func(raw []uint16, suffix []byte) bool {
		sf := make([]Rank, len(raw))
		for i, v := range raw {
			sf[i] = Rank(v)
		}
		sort.Slice(sf, func(i, j int) bool { return sf[i] < sf[j] })
		enc := AppendTag(nil, sf)
		full := append(append([]byte(nil), enc...), suffix...)
		got, n, err := AppendDecodedTag(nil, full)
		if err != nil || n != len(enc) {
			return false
		}
		return Compare(got, sf) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestSetInverseOfSequenceForm(t *testing.T) {
	ord := NewOrder([]int64{5, 1, 9, 3})
	set := []dataset.Item{0, 1, 3}
	sf, err := sequenceForm(ord, set)
	if err != nil {
		t.Fatal(err)
	}
	back := ord.AppendSet(nil, sf)
	if len(back) != len(set) {
		t.Fatalf("AppendSet(sf) = %v", back)
	}
	for i := range set {
		if back[i] != set[i] {
			t.Fatalf("AppendSet(SequenceForm(%v)) = %v", set, back)
		}
	}
}

func buildPaperFig1(t *testing.T) *dataset.Dataset {
	t.Helper()
	// Fig. 1 relation; items a..j = 0..9.
	sets := [][]dataset.Item{
		{6, 1, 0, 3}, // 101 {g,b,a,d}
		{0, 4, 1},    // 102 {a,e,b}
		{5, 4, 0, 1}, // 103 {f,e,a,b}
		{3, 1, 0},    // 104 {d,b,a}
		{0, 1, 5, 2}, // 105 {a,b,f,c}
		{2, 0},       // 106 {c,a}
		{3, 7},       // 107 {d,h}
		{1, 0, 5},    // 108 {b,a,f}
		{1, 2},       // 109 {b,c}
		{9, 1, 6},    // 110 {j,b,g}
		{0, 2, 1},    // 111 {a,c,b}
		{8, 3},       // 112 {i,d}
		{0},          // 113 {a}
		{0, 3},       // 114 {a,d}
		{9, 2, 0},    // 115 {j,c,a}
		{8, 2},       // 116 {i,c}
		{0, 2, 7},    // 117 {a,c,h}
		{3, 2},       // 118 {d,c}
	}
	d := dataset.New(10)
	for _, s := range sets {
		if _, err := d.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestReorderPaperFig3 checks the full §3 example: reordering Fig. 1 must
// produce exactly the relation of Fig. 3.
func TestReorderPaperFig3(t *testing.T) {
	d := buildPaperFig1(t)
	ord := OrderFromDataset(d)
	r, err := Reorder(d, ord, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 3 with items a..j = 0..9, listed in new-id order 1..18.
	want := [][]dataset.Item{
		{0},          // 1 {a}
		{0, 1, 2},    // 2 {a,b,c}
		{0, 1, 2, 5}, // 3 {a,b,c,f}
		{0, 1, 3},    // 4 {a,b,d}
		{0, 1, 3, 6}, // 5 {a,b,d,g}
		{0, 1, 5},    // 6 {a,b,f}
		{0, 1, 5, 4}, // 7 {a,b,f,e}
		{0, 1, 4},    // 8 {a,b,e}
		{0, 2},       // 9 {a,c}
		{0, 2, 7},    // 10 {a,c,h}
		{0, 2, 9},    // 11 {a,c,j}
		{0, 3},       // 12 {a,d}
		{1, 2},       // 13 {b,c}
		{1, 6, 9},    // 14 {b,g,j}
		{2, 3},       // 15 {c,d}
		{2, 8},       // 16 {c,i}
		{3, 7},       // 17 {d,h}
		{3, 8},       // 18 {d,i}
	}
	// Note: the paper's Fig. 3 draws ids 17/18 as {d,i} then {d,h}, which
	// contradicts its own Eq. 1 — h and i both have support 2 and the tie
	// break is alphabetic, so {d,h} < {d,i}. We follow Eq. 1.
	if r.Len() != len(want) {
		t.Fatalf("reordered %d records, want %d", r.Len(), len(want))
	}
	for newID := uint32(1); newID <= uint32(len(want)); newID++ {
		rec := d.Record(r.OrigIndex(newID))
		wantSet := append([]dataset.Item(nil), want[newID-1]...)
		sort.Slice(wantSet, func(i, j int) bool { return wantSet[i] < wantSet[j] })
		if !rec.EqualSet(wantSet) {
			t.Errorf("new id %d = set %v, want %v", newID, rec.Set, wantSet)
		}
	}
}

func TestReorderInvariants(t *testing.T) {
	d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		NumRecords: 3000, DomainSize: 100, MinLen: 1, MaxLen: 10, ZipfTheta: 0.9, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	ord := OrderFromDataset(d)
	r, err := Reorder(d, ord, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Invariant 1: sf is non-decreasing in new-id order.
	for id := uint32(2); id <= uint32(r.Len()); id++ {
		if Compare(r.SF(id-1), r.SF(id)) > 0 {
			t.Fatalf("sf order violated between ids %d and %d", id-1, id)
		}
	}
	// Invariant 2: the id maps are mutually inverse.
	for id := uint32(1); id <= uint32(r.Len()); id++ {
		if r.NewID(r.OrigIndex(id)) != id {
			t.Fatalf("id map not inverse at %d", id)
		}
	}
	// Invariant 3: sf matches the record's set under the order.
	for id := uint32(1); id <= uint32(r.Len()); id += 37 {
		rec := d.Record(r.OrigIndex(id))
		sf, err := sequenceForm(ord, rec.Set)
		if err != nil {
			t.Fatal(err)
		}
		if Compare(sf, r.SF(id)) != 0 {
			t.Fatalf("sf mismatch at id %d", id)
		}
		if len(r.SF(id)) != len(rec.Set) {
			t.Fatalf("cardinality mismatch at id %d", id)
		}
	}
}

func TestReorderStableForDuplicates(t *testing.T) {
	d := dataset.New(5)
	for i := 0; i < 6; i++ {
		if _, err := d.Add([]dataset.Item{1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Add([]dataset.Item{0}); err != nil {
		t.Fatal(err)
	}
	ord := OrderFromDataset(d)
	r, err := Reorder(d, ord, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicates must be consecutive and keep source order.
	prev := -1
	for id := uint32(1); id <= uint32(r.Len()); id++ {
		rec := d.Record(r.OrigIndex(id))
		if rec.EqualSet([]dataset.Item{1, 2}) {
			if prev >= 0 && r.OrigIndex(id) != prev+1 {
				t.Fatal("duplicate records not in stable source order")
			}
			prev = r.OrigIndex(id)
		}
	}
}

func TestReorderEmptySetFirst(t *testing.T) {
	d := dataset.New(3)
	if _, err := d.Add([]dataset.Item{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Add(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Add([]dataset.Item{1, 2}); err != nil {
		t.Fatal(err)
	}
	ord := OrderFromDataset(d)
	r, err := Reorder(d, ord, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.SF(1)) != 0 {
		t.Fatal("empty set did not come first")
	}
}

func TestReorderRandomAgreesWithSortedCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	d := dataset.New(30)
	for i := 0; i < 1000; i++ {
		k := 1 + rng.Intn(6)
		set := make([]dataset.Item, k)
		for j := range set {
			set[j] = dataset.Item(rng.Intn(30))
		}
		if _, err := d.Add(set); err != nil {
			t.Fatal(err)
		}
	}
	ord := OrderFromDataset(d)
	r, err := Reorder(d, ord, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Independently sort sequence forms and compare.
	sfs := make([][]Rank, d.Len())
	for i := 0; i < d.Len(); i++ {
		sf, err := sequenceForm(ord, d.Record(i).Set)
		if err != nil {
			t.Fatal(err)
		}
		sfs[i] = sf
	}
	sort.SliceStable(sfs, func(a, b int) bool { return Compare(sfs[a], sfs[b]) < 0 })
	for id := uint32(1); id <= uint32(r.Len()); id++ {
		if Compare(sfs[id-1], r.SF(id)) != 0 {
			t.Fatalf("independent sort disagrees at id %d", id)
		}
	}
}
