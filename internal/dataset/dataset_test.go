package dataset

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddSortsAndDedups(t *testing.T) {
	d := New(10)
	id, err := d.Add([]Item{5, 1, 3, 1, 5})
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Fatalf("first id = %d, want 1", id)
	}
	r := d.Record(0)
	want := []Item{1, 3, 5}
	if len(r.Set) != len(want) {
		t.Fatalf("set = %v, want %v", r.Set, want)
	}
	for i := range want {
		if r.Set[i] != want[i] {
			t.Fatalf("set = %v, want %v", r.Set, want)
		}
	}
}

func TestAddRejectsOutOfDomain(t *testing.T) {
	d := New(4)
	if _, err := d.Add([]Item{0, 4}); err == nil {
		t.Fatal("item 4 accepted in domain of 4")
	}
}

func TestAddEmptySet(t *testing.T) {
	d := New(4)
	if _, err := d.Add(nil); err != nil {
		t.Fatalf("empty set rejected: %v", err)
	}
	if got := d.ComputeStats().EmptyRecords; got != 1 {
		t.Fatalf("EmptyRecords = %d", got)
	}
	// A collection of empty sets allocates no chunk, and its records
	// still read back.
	mustAdd(t, d, []Item{})
	for i, r := range d.Records() {
		if r.ID != uint32(i+1) || len(r.Set) != 0 || d.Record(i).ID != r.ID {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	if len(d.chunks) != 1 || cap(d.chunks[0]) != 0 {
		t.Fatalf("%d chunks (the first of %d items) for empty sets", len(d.chunks), cap(d.chunks[0]))
	}
}

// TestAddArenaNeighbours: records share the arena, so each set must be
// capacity-limited — appending to one returned set reallocates it
// instead of writing over the next record's items.
func TestAddArenaNeighbours(t *testing.T) {
	d := New(10)
	mustAdd(t, d, []Item{4, 2})
	mustAdd(t, d, []Item{7, 8, 9})
	first := d.Record(0).Set
	if cap(first) != len(first) {
		t.Fatalf("set %v has capacity %d", first, cap(first))
	}
	grown := append(first, 5, 6)
	grown[0] = 3
	if got := d.Record(1).Set; !slices.Equal(got, []Item{7, 8, 9}) {
		t.Fatalf("neighbour after append = %v, want [7 8 9]", got)
	}
	if got := d.Record(0).Set; !slices.Equal(got, []Item{2, 4}) {
		t.Fatalf("record after append to its copy = %v, want [2 4]", got)
	}
}

// TestAddOutOfDomainLeavesArena: a set that fails the domain check is
// canonicalised into the last chunk's spare room before the check, so
// the dataset must not keep it — Len, every record's set and the place
// of the next record are what they were, also when the failed set would
// have opened a new chunk.
func TestAddOutOfDomainLeavesArena(t *testing.T) {
	for _, bad := range [][]Item{{3, 12, 1}, slices.Repeat([]Item{11}, arenaChunk+1)} {
		d := New(10)
		mustAdd(t, d, []Item{1, 2})
		first := d.Record(0)
		chunks, last := len(d.chunks), d.chunks[len(d.chunks)-1]
		if _, err := d.Add(bad); !errors.Is(err, ErrItemOutOfDomain) {
			t.Fatalf("Add(%d items past the domain) = %v, want ErrItemOutOfDomain", len(bad), err)
		}
		if got := d.Record(0); d.Len() != 1 || got.ID != 1 || !slices.Equal(got.Set, []Item{1, 2}) || &got.Set[0] != &first.Set[0] {
			t.Fatalf("after a failed Add: %d records, first %+v, want 1 record %+v", d.Len(), got, first)
		}
		end := d.chunks[len(d.chunks)-1]
		if len(d.chunks) != chunks || len(d.starts) != chunks || len(end) != len(last) || cap(end) != cap(last) || &end[0] != &last[0] {
			t.Fatalf("arena moved: %d chunks, last len %d cap %d; was %d, len %d cap %d",
				len(d.chunks), len(end), cap(end), chunks, len(last), cap(last))
		}
		mustAdd(t, d, []Item{5, 4})
		if got := d.Record(1); got.ID != 2 || !slices.Equal(got.Set, []Item{4, 5}) || &got.Set[0] != &last[:cap(last)][len(last)] {
			t.Fatalf("next record %+v is not the arena's next one", got)
		}
	}
}

// TestRecordsAcrossChunks holds Record, Records, Range, Support and
// ComputeStats to the sets added, over sets of every length up to past
// a chunk — so sets open chunks, end exactly at a chunk's end, and fall
// on either side of one as empty sets — with Grow in between.
func TestRecordsAcrossChunks(t *testing.T) {
	const domain = 64
	rng := rand.New(rand.NewSource(3))
	d := New(domain)
	var want [][]Item
	sup := make([]int64, domain)
	for i := range 3000 {
		var set []Item
		switch {
		case i%7 == 0: // empty
		case i%97 == 0:
			set = make([]Item, arenaChunk+rng.Intn(3))
			for j := range set {
				set[j] = Item(j % domain)
			}
		default:
			set = make([]Item, rng.Intn(2*domain))
			for j := range set {
				set[j] = Item(rng.Intn(domain))
			}
		}
		if i%500 == 250 {
			d.Grow(10, rng.Intn(3*arenaChunk))
		}
		mustAdd(t, d, set)
		c, _ := Canonical(set, domain)
		want = append(want, c)
		for _, it := range c {
			sup[it]++
		}
	}
	if len(d.chunks) < 10 {
		t.Fatalf("only %d chunks: the sets do not cross chunks", len(d.chunks))
	}
	check := func(how string, i int, r Record) {
		t.Helper()
		if r.ID != uint32(i+1) || !slices.Equal(r.Set, want[i]) || cap(r.Set) != len(r.Set) {
			t.Fatalf("%s: record %d = id %d %v (cap %d), want id %d %v", how, i, r.ID, r.Set, cap(r.Set), i+1, want[i])
		}
	}
	for i := range want {
		check("Record", i, d.Record(i))
	}
	n := 0
	for i, r := range d.Records() {
		check("Records", i, r)
		n++
	}
	if n != len(want) {
		t.Fatalf("Records yielded %d records, want %d", n, len(want))
	}
	n = 0
	for range d.Records() {
		if n++; n == 7 {
			break
		}
	}
	for _, lo := range []int{0, 1, 97, 1500, len(want) - 1, len(want)} {
		i := lo
		for j, r := range d.Range(lo, min(lo+400, len(want))) {
			if j != i {
				t.Fatalf("Range(%d, ...) yielded position %d, want %d", lo, j, i)
			}
			check("Range", j, r)
			i++
		}
	}
	if !slices.Equal(d.Support(), sup) {
		t.Fatal("Support disagrees with the sets added")
	}
	st := d.ComputeStats()
	var total int64
	mx, empty := 0, 0
	for _, s := range want {
		total += int64(len(s))
		mx = max(mx, len(s))
		if len(s) == 0 {
			empty++
		}
	}
	if st.NumRecords != len(want) || st.TotalPostings != total || st.MaxCardinal != mx || st.EmptyRecords != empty {
		t.Fatalf("ComputeStats = %+v, want %d records, %d postings, max %d, %d empty", st, len(want), total, mx, empty)
	}
}

// TestCanonicalReturnsFreshCopy: Canonical shares no storage with its
// input, with a record's set, or with its own earlier results.
func TestCanonicalReturnsFreshCopy(t *testing.T) {
	d := New(10)
	mustAdd(t, d, []Item{3, 1})
	in := d.Record(0).Set
	a, err := Canonical(in, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Canonical(in, 10)
	if err != nil {
		t.Fatal(err)
	}
	a[0] = 9
	if !slices.Equal(in, []Item{1, 3}) || !slices.Equal(b, []Item{1, 3}) {
		t.Fatalf("writing Canonical's result changed the record (%v) or another result (%v)", in, b)
	}
	raw := []Item{4, 2, 4}
	c, err := Canonical(raw, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(raw, []Item{4, 2, 4}) || !slices.Equal(c, []Item{2, 4}) {
		t.Fatalf("Canonical(%v) = %v; input must be untouched", raw, c)
	}
}

func TestSupport(t *testing.T) {
	d := New(4)
	mustAdd(t, d, []Item{0, 1})
	mustAdd(t, d, []Item{0, 2})
	mustAdd(t, d, []Item{0})
	sup := d.Support()
	want := []int64{3, 1, 1, 0}
	for i := range want {
		if sup[i] != want[i] {
			t.Fatalf("support = %v, want %v", sup, want)
		}
	}
}

func mustAdd(t *testing.T, d *Dataset, set []Item) uint32 {
	t.Helper()
	id, err := d.Add(set)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestRecordPredicates(t *testing.T) {
	d := New(10)
	mustAdd(t, d, []Item{1, 3, 5, 7})
	r := d.Record(0)
	if !r.Contains(3) || r.Contains(4) {
		t.Fatal("Contains wrong")
	}
	if !r.ContainsAll([]Item{1, 5}) {
		t.Fatal("ContainsAll({1,5}) = false")
	}
	if r.ContainsAll([]Item{1, 2}) {
		t.Fatal("ContainsAll({1,2}) = true")
	}
	if !r.SubsetOf([]Item{0, 1, 2, 3, 4, 5, 6, 7}) {
		t.Fatal("SubsetOf(superset) = false")
	}
	if r.SubsetOf([]Item{1, 3, 5}) {
		t.Fatal("SubsetOf(smaller) = true")
	}
	if !r.EqualSet([]Item{1, 3, 5, 7}) || r.EqualSet([]Item{1, 3, 5}) {
		t.Fatal("EqualSet wrong")
	}
}

func TestRecordPredicatesAgainstMaps(t *testing.T) {
	// Property check: the sorted-merge predicates agree with map logic.
	f := func(setRaw, qsRaw []uint8) bool {
		set := make([]Item, len(setRaw))
		for i, v := range setRaw {
			set[i] = Item(v % 32)
		}
		qs := make([]Item, len(qsRaw))
		for i, v := range qsRaw {
			qs[i] = Item(v % 32)
		}
		d := New(32)
		d.Add(set)
		r := d.Record(0)
		qs = normalize(qs)
		inQS := make(map[Item]bool)
		for _, q := range qs {
			inQS[q] = true
		}
		inSet := make(map[Item]bool)
		for _, s := range r.Set {
			inSet[s] = true
		}
		wantAll := true
		for _, q := range qs {
			if !inSet[q] {
				wantAll = false
			}
		}
		wantSub := true
		for _, s := range r.Set {
			if !inQS[s] {
				wantSub = false
			}
		}
		return r.ContainsAll(qs) == wantAll && r.SubsetOf(qs) == wantSub
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func normalize(s []Item) []Item {
	slices.Sort(s)
	return slices.Compact(s)
}

// probability is item i's sampling probability: its step of z's cdf.
func probability(z *Zipf, i int) float64 {
	if i == 0 {
		return z.cdf[0]
	}
	return z.cdf[i] - z.cdf[i-1]
}

func TestZipfProbabilities(t *testing.T) {
	z := NewZipf(4, 1.0)
	// Weights 1, 1/2, 1/3, 1/4 -> normalised.
	h := 1 + 0.5 + 1.0/3 + 0.25
	want := []float64{1 / h, 0.5 / h, (1.0 / 3) / h, 0.25 / h}
	for i, w := range want {
		if got := probability(z, i); math.Abs(got-w) > 1e-12 {
			t.Errorf("P(%d) = %f, want %f", i, got, w)
		}
	}
}

func TestZipfUniformWhenThetaZero(t *testing.T) {
	z := NewZipf(10, 0)
	for i := 0; i < 10; i++ {
		if got := probability(z, i); math.Abs(got-0.1) > 1e-12 {
			t.Fatalf("theta=0 P(%d) = %f, want 0.1", i, got)
		}
	}
}

func TestZipfEmpiricalSkew(t *testing.T) {
	z := NewZipf(100, 1.0)
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 100)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Sample(rng)]++
	}
	// Item 0 should appear roughly 1/H(100) ≈ 19% of the time.
	p0 := float64(counts[0]) / n
	if p0 < 0.17 || p0 > 0.22 {
		t.Fatalf("empirical P(0) = %f, want ≈ 0.19", p0)
	}
	if counts[0] <= counts[50] {
		t.Fatal("no skew observed")
	}
}

func TestSampleDistinct(t *testing.T) {
	z := NewZipf(17, 0.25)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		k := 1 + rng.Intn(17)
		s := z.SampleDistinct(rng, k)
		if len(s) != k {
			t.Fatalf("got %d items, want %d", len(s), k)
		}
		seen := map[Item]bool{}
		for _, it := range s {
			if seen[it] {
				t.Fatalf("duplicate item %d in %v", it, s)
			}
			if int(it) >= 17 {
				t.Fatalf("item %d out of domain", it)
			}
			seen[it] = true
		}
	}
	// k > n clamps.
	if got := z.SampleDistinct(rng, 40); len(got) != 17 {
		t.Fatalf("clamped sample has %d items, want 17", len(got))
	}
}

// TestAppendDistinctMatchesSampleDistinct: the generators' reused draw
// buffer must make SampleDistinct's draws — on the rejection path, the
// dense sweep of a small and of a large vocabulary, and a steep skew that
// hands rejection over to the sweep — and leave what dst held before.
func TestAppendDistinctMatchesSampleDistinct(t *testing.T) {
	for _, c := range []struct {
		n     int
		theta float64
		k     int
	}{{2000, 0.8, 20}, {17, 0.25, 12}, {600, 0.5, 400}, {2000, 20, 20}, {5, 1, 9}, {5, 1, 0}} {
		z := NewZipf(c.n, c.theta)
		a, b := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
		prefix := []Item{99, 98}
		for trial := 0; trial < 50; trial++ {
			want := z.SampleDistinct(a, c.k)
			got := z.appendDistinct(slices.Clone(prefix), b, c.k)
			if !slices.Equal(got[:2], prefix) || !slices.Equal(got[2:], want) {
				t.Fatalf("n=%d theta=%g k=%d trial %d: appended %v after %v, want %v", c.n, c.theta, c.k, trial, got[2:], got[:2], want)
			}
		}
	}
}

func TestGenerateSynthetic(t *testing.T) {
	cfg := DefaultSynthetic(5000)
	d, err := GenerateSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := d.ComputeStats()
	if st.NumRecords != 5000 || st.DomainSize != 2000 {
		t.Fatalf("stats %+v", st)
	}
	if st.AvgCardinal < 9 || st.AvgCardinal > 13 {
		t.Fatalf("avg cardinality %f, want ≈ 11 for uniform 2..20", st.AvgCardinal)
	}
	if st.MaxCardinal > 20 {
		t.Fatalf("max cardinality %d > 20", st.MaxCardinal)
	}
	// Skew: most frequent item should dominate the median item.
	sup := d.Support()
	sorted := append([]int64(nil), sup...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	if sorted[0] < 4*sorted[1000] {
		t.Fatalf("zipf 0.8 skew missing: top %d vs median %d", sorted[0], sorted[1000])
	}
}

func TestGenerateSyntheticDeterministic(t *testing.T) {
	a, err := GenerateSynthetic(DefaultSynthetic(200))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSynthetic(DefaultSynthetic(200))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		ra, rb := a.Record(i), b.Record(i)
		if len(ra.Set) != len(rb.Set) {
			t.Fatalf("record %d differs across identical seeds", i)
		}
		for j := range ra.Set {
			if ra.Set[j] != rb.Set[j] {
				t.Fatalf("record %d differs across identical seeds", i)
			}
		}
	}
}

func TestGenerateSyntheticValidation(t *testing.T) {
	bad := DefaultSynthetic(10)
	bad.MinLen = 0
	if _, err := GenerateSynthetic(bad); err == nil {
		t.Error("MinLen 0 accepted")
	}
	bad = DefaultSynthetic(10)
	bad.DomainSize = 0
	if _, err := GenerateSynthetic(bad); err == nil {
		t.Error("DomainSize 0 accepted")
	}
	bad = DefaultSynthetic(-1)
	if _, err := GenerateSynthetic(bad); err == nil {
		t.Error("negative NumRecords accepted")
	}
}

func TestGenerateMSWebTwin(t *testing.T) {
	cfg := MSWebConfig{BaseRecords: 2000, Replicas: 10, Seed: 2}
	d, err := GenerateMSWeb(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := d.ComputeStats()
	if st.NumRecords != 20000 {
		t.Fatalf("records = %d, want 20000", st.NumRecords)
	}
	if st.DomainSize != 294 {
		t.Fatalf("domain = %d, want 294", st.DomainSize)
	}
	if st.AvgCardinal < 2.0 || st.AvgCardinal > 4.0 {
		t.Fatalf("avg cardinality %f, want ≈ 3", st.AvgCardinal)
	}
	// Replication: record i and record i+base must be identical sets.
	for i := 0; i < 100; i++ {
		a, b := d.Record(i), d.Record(i+2000)
		if !a.EqualSet(b.Set) {
			t.Fatalf("replica %d differs from base", i)
		}
	}
	// Skew check.
	sup := d.Support()
	sorted := append([]int64(nil), sup...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	if sorted[0] < 10*sorted[100] {
		t.Fatalf("msweb skew missing: %d vs %d", sorted[0], sorted[100])
	}
}

func TestGenerateMSNBCTwin(t *testing.T) {
	d, err := GenerateMSNBC(MSNBCConfig{NumRecords: 20000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	st := d.ComputeStats()
	if st.DomainSize != 17 {
		t.Fatalf("domain = %d, want 17", st.DomainSize)
	}
	if st.AvgCardinal < 4.5 || st.AvgCardinal > 7.0 {
		t.Fatalf("avg cardinality %f, want ≈ 5.7", st.AvgCardinal)
	}
	// Near-uniform: max support within 4x of min support.
	sup := d.Support()
	mn, mx := sup[0], sup[0]
	for _, s := range sup {
		if s < mn {
			mn = s
		}
		if s > mx {
			mx = s
		}
	}
	if mn == 0 || mx > 4*mn {
		t.Fatalf("msnbc distribution too skewed: min %d max %d", mn, mx)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	d, err := GenerateSynthetic(SyntheticConfig{
		NumRecords: 500, DomainSize: 50, MinLen: 1, MaxLen: 8, ZipfTheta: 0.5, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() || got.DomainSize() != d.DomainSize() {
		t.Fatalf("round trip: %d/%d records, %d/%d domain",
			got.Len(), d.Len(), got.DomainSize(), d.DomainSize())
	}
	for i := 0; i < d.Len(); i++ {
		if !got.Record(i).EqualSet(d.Record(i).Set) {
			t.Fatalf("record %d differs after round trip", i)
		}
	}
}

func TestReadHeaderless(t *testing.T) {
	in := "1 2 3\n7\n"
	d, err := Read(bytes.NewBufferString(in))
	if err != nil {
		t.Fatal(err)
	}
	if d.DomainSize() != 8 {
		t.Fatalf("inferred domain = %d, want 8", d.DomainSize())
	}
	if d.Len() != 2 {
		t.Fatalf("records = %d, want 2", d.Len())
	}
}

func TestReadEmptySetLines(t *testing.T) {
	in := "domain 5\n0 1\n\n2\n"
	d, err := Read(bytes.NewBufferString(in))
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 3 {
		t.Fatalf("records = %d, want 3 (middle one empty)", d.Len())
	}
	if len(d.Record(1).Set) != 0 {
		t.Fatalf("record 2 set = %v, want empty", d.Record(1).Set)
	}
}

func TestReadBadInput(t *testing.T) {
	if _, err := Read(bytes.NewBufferString("domain x\n")); err == nil {
		t.Error("bad domain header accepted")
	}
	if _, err := Read(bytes.NewBufferString("domain 5\n1 zebra\n")); err == nil {
		t.Error("bad item accepted")
	}
	if _, err := Read(bytes.NewBufferString("domain 2\n0 5\n")); err == nil {
		t.Error("out-of-domain item accepted")
	}
}

// TestReadErrorOrder: a malformed line is reported before an earlier
// record that falls outside the header's domain, with its line number,
// and a record outside the domain by its record number.
func TestReadErrorOrder(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"# c\ndomain 4\n1 9\n\n2 x\n", `dataset: line 5: bad item "x"`},
		{"domain 4\n1\n\n2 9\n3\n", "dataset: record 3: dataset: item outside domain: item 9, domain 4"},
		{"\n\n1 4294967296\n", `dataset: line 3: bad item "4294967296"`},
		{"domain -1\n", `dataset: line 1: bad domain header "domain -1"`},
	} {
		if _, err := Read(strings.NewReader(c.in)); err == nil || err.Error() != c.want {
			t.Errorf("Read(%q) = %v, want %s", c.in, err, c.want)
		}
	}
	d, err := Read(strings.NewReader("\n# c\n3\u00a07 007\n\n4294967295\n"))
	if err != nil {
		t.Fatal(err)
	}
	if d.DomainSize() != 1<<32 || d.Len() != 3 || !slices.Equal(d.Record(0).Set, []Item{3, 7}) ||
		len(d.Record(1).Set) != 0 || !slices.Equal(d.Record(2).Set, []Item{math.MaxUint32}) {
		t.Fatalf("headerless read: domain %d, %d records", d.DomainSize(), d.Len())
	}
}

// FuzzDatasetText: any bytes through Read give an error or a dataset,
// never a panic, and a dataset Read accepts goes back through Write and
// Read to the same domain and records.
func FuzzDatasetText(f *testing.F) {
	for _, s := range []string{
		"", "domain 5\n0 1\n\n2\n", "1 2 3\n7\n", "# c\n\n3 3 1\n",
		"domain 2\n0 5\n", "domain x\n", "1 zebra\n", "domain 0\n\n\n",
		"4294967295 0\n", "\t 2\v9\u00a01\r\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		d, err := Read(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, d); err != nil {
			t.Fatal(err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-reading what Write wrote: %v\n%s", err, buf.Bytes())
		}
		if back.DomainSize() != d.DomainSize() || back.Len() != d.Len() {
			t.Fatalf("round trip: domain %d, %d records; want %d, %d", back.DomainSize(), back.Len(), d.DomainSize(), d.Len())
		}
		for i, r := range d.Records() {
			if got := back.Record(i); got.ID != r.ID || !slices.Equal(got.Set, r.Set) {
				t.Fatalf("record %d = %+v after the round trip, want %+v", i, got, r)
			}
		}
	})
}

func TestLabels(t *testing.T) {
	d := New(2)
	if err := d.SetLabels([]string{"home", "downloads"}); err != nil {
		t.Fatal(err)
	}
	if d.Label(1) != "downloads" {
		t.Fatalf("Label(1) = %q", d.Label(1))
	}
	if d.Label(9) != "9" {
		t.Fatalf("Label(9) = %q, want decimal fallback", d.Label(9))
	}
	if err := d.SetLabels([]string{"one"}); err == nil {
		t.Fatal("wrong label count accepted")
	}
}

func TestTruncGeometricBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sum := 0
	const n = 50000
	for i := 0; i < n; i++ {
		k := truncGeometric(rng, 1.0/3.0, 1, 35)
		if k < 1 || k > 35 {
			t.Fatalf("k = %d out of bounds", k)
		}
		sum += k
	}
	mean := float64(sum) / n
	if mean < 2.5 || mean > 3.5 {
		t.Fatalf("mean = %f, want ≈ 3", mean)
	}
}
