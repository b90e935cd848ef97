package sequence

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/dataset"
)

// stableOrder is the comparison sort Reorder replaced, kept as its
// oracle: source positions stably sorted by Compare on their sequence
// forms.
func stableOrder(t testing.TB, d *dataset.Dataset, ord *Order) []uint32 {
	t.Helper()
	sfs := make([][]Rank, d.Len())
	perm := make([]uint32, d.Len())
	for i := range sfs {
		sf, err := sequenceForm(ord, d.Record(i).Set)
		if err != nil {
			t.Fatal(err)
		}
		sfs[i], perm[i] = sf, uint32(i)
	}
	slices.SortStableFunc(perm, func(a, b uint32) int { return Compare(sfs[a], sfs[b]) })
	return perm
}

// checkReorder holds Reorder's whole permutation on one worker, and the
// arena it copies in that order, to the oracle's, and its parts at each
// further worker count to the one worker's, slice for slice.
func checkReorder(t testing.TB, d *dataset.Dataset, workers ...int) {
	t.Helper()
	ord := OrderFromDataset(d)
	r, err := Reorder(d, ord, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := stableOrder(t, d, ord)
	if r.Len() != len(want) {
		t.Fatalf("%d records reordered, want %d", r.Len(), len(want))
	}
	for id := uint32(1); id <= uint32(r.Len()); id++ {
		if got := r.OrigIndex(id); got != int(want[id-1]) {
			t.Fatalf("new id %d is source position %d, want %d", id, got, want[id-1])
		}
		sf, err := sequenceForm(ord, d.Record(r.OrigIndex(id)).Set)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(r.SF(id), sf) {
			t.Fatalf("new id %d has form %v, want %v", id, r.SF(id), sf)
		}
	}
	for _, w := range workers {
		p, err := Reorder(d, ord, w)
		if err != nil {
			t.Fatal(err)
		}
		if !sameParts(p, r) {
			t.Fatalf("%d workers reorder %d records unlike one worker", w, r.Len())
		}
	}
}

// sameParts reports whether two re-orderings hold equal slices.
func sameParts(a, b *Reordered) bool {
	af, ao := a.Parts()
	bf, bo := b.Parts()
	return slices.Equal(af, bf) && slices.Equal(ao, bo) && slices.Equal(a.Perm(), b.Perm()) && slices.Equal(a.newID, b.newID)
}

// randomDataset draws n records over a domain: Zipf-skewed items so
// forms share long prefixes, a share of exact duplicates and of empty
// sets, and cardinalities up to maxLen.
func randomDataset(t testing.TB, rng *rand.Rand, n, domain, maxLen int) *dataset.Dataset {
	t.Helper()
	d := dataset.New(domain)
	z := dataset.NewZipf(domain, 1.1*rng.Float64())
	for i := 0; i < n; i++ {
		var set []dataset.Item
		switch u := rng.Float64(); {
		case u < 0.05:
			// empty
		case u < 0.25 && i > 0:
			set = d.Record(rng.Intn(i)).Set
		default:
			set = z.SampleDistinct(rng, 1+rng.Intn(min(maxLen, domain)))
		}
		if _, err := d.Add(set); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestReorderMatchesStableSort covers both of Reorder's passes at the
// top level: the counting pass (many records over a small domain) and
// the comparison fallback (few records over a large one), with their
// hand-over at every bucket size in between.
func TestReorderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, n := range []int{0, 1, 2, 31, 32, 33, 200, 1000, 5000} {
		for _, domain := range []int{1, 2, 17, 100, 2000, 100000} {
			for _, maxLen := range []int{3, 20, 300} {
				checkReorder(t, randomDataset(t, rng, n, domain, maxLen), 2, 7)
			}
		}
	}
	// Long identical prefixes: every record extends one shared
	// 250-rank form, so buckets are counted to depth 250.
	d := dataset.New(400)
	base := make([]dataset.Item, 250)
	for i := range base {
		base[i] = dataset.Item(i)
	}
	for i := 0; i < 3000; i++ {
		set := append(slices.Clip(base), dataset.Item(250+rng.Intn(150)))
		if i%7 == 0 {
			set = base[:rng.Intn(len(base))]
		}
		if _, err := d.Add(set); err != nil {
			t.Fatal(err)
		}
	}
	checkReorder(t, d, 2, 7)
}

// FuzzReorder reads a small dataset from bytes — the first picks the
// domain, then each record is a length byte and that many item bytes —
// and holds Reorder to the stable comparison sort on it, and two
// workers to one.
func FuzzReorder(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{0, 8, 200, 2000} {
		seed := make([]byte, size)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		d := dataset.New(1 + int(data[0]%64))
		for rest := data[1:]; len(rest) > 0; {
			k := min(int(rest[0]%24), len(rest)-1)
			set := make([]dataset.Item, k)
			for i := range set {
				set[i] = dataset.Item(int(rest[1+i]) % d.DomainSize())
			}
			if _, err := d.Add(set); err != nil {
				t.Fatal(err)
			}
			rest = rest[1+k:]
		}
		checkReorder(t, d, 2)
	})
}

// BenchmarkReorder times the §3 re-ordering of the §5 dataset at the
// benchmark's size (200 000 records, seed 1), on GOMAXPROCS workers as
// core.Build runs it.
func BenchmarkReorder(b *testing.B) {
	d, err := dataset.GenerateSynthetic(dataset.DefaultSynthetic(200000))
	if err != nil {
		b.Fatal(err)
	}
	ord := OrderFromDataset(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Reorder(d, ord, runtime.GOMAXPROCS(0)); err != nil {
			b.Fatal(err)
		}
	}
}
