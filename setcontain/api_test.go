package setcontain

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

func TestParseKind(t *testing.T) {
	cases := []struct {
		in   string
		want Kind
		ok   bool
	}{
		{"oif", OIF, true},
		{"OIF", OIF, true},
		{" if ", InvertedFile, true},
		{"invfile", InvertedFile, true},
		{"ubt", UnorderedBTree, true},
		{"UBTree", UnorderedBTree, true},
		{"btree", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		got, err := ParseKind(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseKind(%q) succeeded, want error", c.in)
		}
	}
	// Round-trip every registered kind through its String form.
	for _, k := range AllKinds {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
}

func TestParsePredicate(t *testing.T) {
	for _, p := range []Predicate{PredicateSubset, PredicateEquality, PredicateSuperset} {
		got, err := ParsePredicate(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePredicate(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	if _, err := ParsePredicate("contains"); err == nil {
		t.Error("ParsePredicate(contains) succeeded, want error")
	}
}

func TestQueryString(t *testing.T) {
	q := Query{Pred: PredicateSubset, Items: []Item{3, 17, 29}}
	if got, want := q.String(), "subset{3 17 29}"; got != want {
		t.Errorf("Query.String() = %q, want %q", got, want)
	}
	if got, want := EqualityQuery(nil).String(), "equality{}"; got != want {
		t.Errorf("Query.String() = %q, want %q", got, want)
	}
}

func TestFunctionalOptions(t *testing.T) {
	o := NewOptions(WithKind(UnorderedBTree), WithPageSize(1024),
		WithBlockPostings(16), WithCachePages(12))
	want := Options{Kind: UnorderedBTree, PageSize: 1024, BlockPostings: 16,
		CachePages: 12}
	if o != want {
		t.Errorf("NewOptions = %+v, want %+v", o, want)
	}
}

func TestEngineCapabilities(t *testing.T) {
	c := sampleCollection(t)
	idxs := buildAll(t, c)

	var buf bytes.Buffer
	if err := idxs[UnorderedBTree].Save(&buf); !errors.Is(err, ErrNoSnapshots) {
		t.Errorf("UBT Save: got %v, want ErrNoSnapshots", err)
	} else if !strings.Contains(err.Error(), "UBT") {
		t.Errorf("UBT Save error %q does not name the engine", err)
	}
	for _, kind := range []Kind{OIF, InvertedFile, Sharded} {
		buf.Reset()
		if err := idxs[kind].Save(&buf); err != nil {
			t.Errorf("%v Save: %v", kind, err)
		}
	}
	if _, err := idxs[UnorderedBTree].Insert([]Item{1}); !errors.Is(err, ErrNoUpdates) {
		t.Errorf("UBT Insert: got %v, want ErrNoUpdates", err)
	} else if !strings.Contains(err.Error(), "UBT") {
		t.Errorf("UBT Insert error %q does not name the engine", err)
	}
	if err := idxs[UnorderedBTree].Delete(1); !errors.Is(err, ErrNoUpdates) {
		t.Errorf("UBT Delete: got %v, want ErrNoUpdates", err)
	}
	if err := idxs[UnorderedBTree].MergeDelta(); !errors.Is(err, ErrNoUpdates) {
		t.Errorf("UBT MergeDelta: got %v, want ErrNoUpdates", err)
	}

	for kind, ix := range idxs {
		eng := ix.Engine()
		if eng.Kind() != kind {
			t.Errorf("engine kind %v, want %v", eng.Kind(), kind)
		}
		if sp := eng.Space(); sp.Pages <= 0 || sp.Bytes != sp.Pages*512 {
			t.Errorf("%v: implausible space %+v", kind, sp)
		}
		if eng.NumRecords() != c.Len() {
			t.Errorf("%v: NumRecords %d, want %d", kind, eng.NumRecords(), c.Len())
		}
		// Wrapping the unwrapped backend reproduces an equivalent engine
		// (a sharded engine unwraps to its clients, which reassemble).
		var again Engine
		var err error
		if clients, ok := eng.Unwrap().([]ShardClient); ok {
			var over *Index
			if over, err = ShardedOverClients(context.Background(), clients); err == nil {
				again = over.Engine()
			}
		} else {
			again, err = EngineOf(eng.Unwrap())
		}
		if err != nil {
			t.Fatalf("%v: rewrapping Unwrap: %v", kind, err)
		}
		if again.Kind() != kind {
			t.Errorf("%v: rewrapped kind %v", kind, again.Kind())
		}
	}

	if _, err := EngineOf(42); err == nil {
		t.Error("EngineOf(42) succeeded, want error")
	}
	if _, err := Build(NewCollection(4), Options{Kind: Kind(99)}); err == nil {
		t.Error("Build with unknown kind succeeded, want error")
	}
}
