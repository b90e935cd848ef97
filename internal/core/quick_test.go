package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/naive"
)

// quickCase is a generated mini-database plus one query, built by
// testing/quick's reflection generator and normalised in Build.
type quickCase struct {
	Domain  uint8
	Records [][]uint8
	Query   []uint8
}

// Generate implements quick.Generator: small domains and collections so
// thousands of cases stay fast while covering duplicates, empties, and
// extreme skews.
func (quickCase) Generate(rand *rand.Rand, size int) reflect.Value {
	c := quickCase{Domain: uint8(1 + rand.Intn(24))}
	n := rand.Intn(60)
	for i := 0; i < n; i++ {
		l := rand.Intn(8)
		set := make([]uint8, l)
		for j := range set {
			set[j] = uint8(rand.Intn(int(c.Domain)))
		}
		c.Records = append(c.Records, set)
	}
	q := rand.Intn(5)
	c.Query = make([]uint8, q)
	for j := range c.Query {
		c.Query[j] = uint8(rand.Intn(int(c.Domain)))
	}
	return reflect.ValueOf(c)
}

func (c quickCase) dataset(t testing.TB) *dataset.Dataset {
	t.Helper()
	d := dataset.New(int(c.Domain))
	for _, raw := range c.Records {
		set := make([]dataset.Item, len(raw))
		for i, v := range raw {
			set[i] = dataset.Item(v)
		}
		if _, err := d.Add(set); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func (c quickCase) query() []dataset.Item {
	qs := make([]dataset.Item, len(c.Query))
	for i, v := range c.Query {
		qs[i] = dataset.Item(v)
	}
	return qs
}

// TestQuickAllPredicatesMatchOracle is the repository's broadest property
// test: for arbitrary generated databases and queries, the OIF agrees
// with the full-scan oracle on all three predicates.
func TestQuickAllPredicatesMatchOracle(t *testing.T) {
	f := func(c quickCase) bool {
		d := c.dataset(t)
		ix, err := Build(d, Options{PageSize: 512, BlockPostings: 4})
		if err != nil {
			t.Logf("build: %v", err)
			return false
		}
		qs := c.query()
		got, err := ix.Subset(qs)
		if err != nil || !equalIDs(got, naive.Subset(d, qs)) {
			t.Logf("subset mismatch for %+v (err %v)", c, err)
			return false
		}
		got, err = ix.Equality(qs)
		if err != nil || !equalIDs(got, naive.Equality(d, qs)) {
			t.Logf("equality mismatch for %+v (err %v)", c, err)
			return false
		}
		got, err = ix.Superset(qs)
		if err != nil || !equalIDs(got, naive.Superset(d, qs)) {
			t.Logf("superset mismatch for %+v (err %v)", c, err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 400}
	if testing.Short() {
		cfg.MaxCount = 60
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickInsertPreservesOracle extends the property across the delta
// path: insert a generated record, query before and after MergeDelta.
func TestQuickInsertPreservesOracle(t *testing.T) {
	f := func(c quickCase, extraRaw []uint8) bool {
		d := c.dataset(t)
		ix, err := Build(d, Options{PageSize: 512, BlockPostings: 4})
		if err != nil {
			return false
		}
		extra := make([]dataset.Item, 0, len(extraRaw))
		for _, v := range extraRaw {
			extra = append(extra, dataset.Item(v)%dataset.Item(c.Domain))
		}
		if _, err := ix.Insert(extra); err != nil {
			t.Logf("insert: %v", err)
			return false
		}
		if _, err := d.Add(extra); err != nil {
			return false
		}
		qs := c.query()
		got, err := ix.Subset(qs)
		if err != nil || !equalIDs(got, naive.Subset(d, qs)) {
			t.Logf("pre-merge subset mismatch for %+v", c)
			return false
		}
		if err := ix.MergeDelta(); err != nil {
			t.Logf("merge: %v", err)
			return false
		}
		got, err = ix.Superset(qs)
		if err != nil || !equalIDs(got, naive.Superset(d, qs)) {
			t.Logf("post-merge superset mismatch for %+v", c)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150}
	if testing.Short() {
		cfg.MaxCount = 30
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRoIInvariant pins Theorem 2's guarantee directly: every subset
// answer's sequence form lies inside [RoI lower, RoI upper].
func TestQuickRoIInvariant(t *testing.T) {
	f := func(c quickCase) bool {
		if len(c.Query) == 0 {
			return true
		}
		d := c.dataset(t)
		ix, err := Build(d, Options{PageSize: 512, BlockPostings: 4})
		if err != nil {
			return false
		}
		forms := rebuiltForms(t, ix)
		ix.ensureRuntime()
		q, err := ix.prepRanks(c.query())
		if err != nil || len(q) == 0 {
			return true
		}
		// prepRanks returns an arena-owned slice that the Subset call
		// below will reuse; copy it before querying.
		q = append([]uint32(nil), q...)
		ids, err := ix.Subset(c.query())
		if err != nil {
			return false
		}
		n := len(q)
		lower := appendConsecutiveRanks(nil, 0, q[n-1])
		upper := q
		if maxR := ix.ord.MaxRank(); q[n-1] != maxR {
			upper = append(append([]uint32{}, q...), maxR)
		}
		for _, orig := range ids {
			newID := ix.ids.NewID(int(orig - 1))
			sf := forms.SF(newID)
			if cmpSeq(sf, lower) < 0 || cmpSeq(sf, upper) > 0 {
				t.Logf("answer %d sf %v outside RoI [%v, %v]", orig, sf, lower, upper)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300}
	if testing.Short() {
		cfg.MaxCount = 50
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func cmpSeq(a, b []uint32) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}
