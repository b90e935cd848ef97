package setcontain

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// parseQuery reads the plain query form: a one-leaf expression,
// unwrapped by AsQuery.
func parseQuery(s string) (Query, error) {
	e, err := ParseExpr(s)
	if err != nil {
		return Query{}, err
	}
	q, plain := e.AsQuery()
	if !plain {
		return Query{}, fmt.Errorf("setcontain: %q is an expression, not a plain query", s)
	}
	return q, nil
}

// TestQueryStringParseRoundTrip pins the textual query form — the wire
// vocabulary of the serve package and the CLIs — as a lossless
// round-trip: parseQuery(q.String()) == q for every predicate, item
// shape, and boundary value.
func TestQueryStringParseRoundTrip(t *testing.T) {
	cases := []Query{
		{Pred: PredicateSubset, Items: nil},
		{Pred: PredicateSubset, Items: []Item{0}},
		{Pred: PredicateSubset, Items: []Item{3, 17, 29}},
		{Pred: PredicateEquality, Items: []Item{1}},
		{Pred: PredicateEquality, Items: []Item{0, 1, 2, 3, 4, 5, 6, 7}},
		{Pred: PredicateSuperset, Items: []Item{42}},
		{Pred: PredicateSuperset, Items: []Item{0, 1<<32 - 1}},
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		items := make([]Item, rng.Intn(12))
		for j := range items {
			items[j] = rng.Uint32()
		}
		cases = append(cases, Query{Pred: Predicate(rng.Intn(3)), Items: items})
	}
	for _, q := range cases {
		s := q.String()
		got, err := parseQuery(s)
		if err != nil {
			t.Fatalf("parseQuery(%q): %v", s, err)
		}
		if got.Pred != q.Pred {
			t.Fatalf("parseQuery(%q): pred %v, want %v", s, got.Pred, q.Pred)
		}
		if len(got.Items) != len(q.Items) {
			t.Fatalf("parseQuery(%q): %d items, want %d", s, len(got.Items), len(q.Items))
		}
		for j := range q.Items {
			if got.Items[j] != q.Items[j] {
				t.Fatalf("parseQuery(%q): item[%d] = %d, want %d", s, j, got.Items[j], q.Items[j])
			}
		}
		if again := got.String(); again != s {
			t.Fatalf("second round-trip drifted: %q -> %q", s, again)
		}
	}
}

// TestParseQueryLenient pins the accepted variations: surrounding
// whitespace, case-insensitive predicates, flexible item spacing.
func TestParseQueryLenient(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want string
	}{
		{"  subset{3 17}  ", "subset{3 17}"},
		{"SUBSET{3 17}", "subset{3 17}"},
		{"Equality {1}", "equality{1}"},
		{"superset{  7   9  }", "superset{7 9}"},
		{"subset{}", "subset{}"},
		{"subset{ }", "subset{}"},
		{"subset{007}", "subset{7}"},
	} {
		q, err := parseQuery(tc.in)
		if err != nil {
			t.Errorf("parseQuery(%q): %v", tc.in, err)
			continue
		}
		if got := q.String(); got != tc.want {
			t.Errorf("parseQuery(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestParseQueryMalformed pins the error paths: every malformed input
// must fail with a message naming the offending query.
func TestParseQueryMalformed(t *testing.T) {
	for _, in := range []string{
		"",
		"subset",
		"subset{1 2",
		"subset 1 2}",
		"subset(1 2)",
		"between{1 2}",
		"{1 2}",
		"subset{1 b 3}",
		"subset{-1}",
		"subset{1.5}",
		"subset{4294967296}",     // uint32 overflow by one
		"subset{99999999999999}", // far past overflow
		"subset{1 2}trailing",
		"subset{1 {2} 3}",
		"subset{1}}",
	} {
		q, err := parseQuery(in)
		if err == nil {
			t.Errorf("parseQuery(%q) accepted as %v", in, q)
			continue
		}
		if !strings.Contains(err.Error(), "setcontain") {
			t.Errorf("parseQuery(%q): error %q lacks package prefix", in, err)
		}
	}
	// The overflow boundary itself is fine.
	if _, err := parseQuery("subset{4294967295}"); err != nil {
		t.Errorf("max uint32 rejected: %v", err)
	}
}

// TestParsePredicateMalformed completes the predicate surface: the
// round-trip over all three values plus rejection of near-misses.
func TestParsePredicateMalformed(t *testing.T) {
	for _, p := range []Predicate{PredicateSubset, PredicateEquality, PredicateSuperset} {
		got, err := ParsePredicate(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePredicate(%q) = %v, %v", p.String(), got, err)
		}
	}
	for _, in := range []string{"", "sub", "subsets", "equal", "⊆", "subset{1}"} {
		if got, err := ParsePredicate(in); err == nil {
			t.Errorf("ParsePredicate(%q) accepted as %v", in, got)
		}
	}
	// Out-of-range predicate values stringify distinctly and refuse to
	// parse back — Eval rejects them with ErrUnknownPredicate.
	if s := Predicate(42).String(); s != "Predicate(42)" {
		t.Errorf("Predicate(42).String() = %q", s)
	}
	if _, err := ParsePredicate(Predicate(42).String()); err == nil {
		t.Error("Predicate(42) round-tripped")
	}
}
