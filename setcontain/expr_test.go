package setcontain

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestExprStringParseRoundTrip(t *testing.T) {
	leaf := func(pred Predicate, items ...Item) *Expr {
		return ExprOf(Query{Pred: pred, Items: items})
	}
	cases := []struct {
		expr *Expr
		want string
	}{
		{leaf(PredicateSubset, 3, 17), "subset{3 17}"},
		{Not(leaf(PredicateSuperset, 29)), "not superset{29}"},
		{And(leaf(PredicateSubset, 1), Not(leaf(PredicateSuperset, 3))),
			"subset{1} and not superset{3}"},
		{And(leaf(PredicateSubset, 1), leaf(PredicateEquality, 2), leaf(PredicateSuperset)),
			"subset{1} and equality{2} and superset{}"},
		{Or(And(leaf(PredicateSubset, 1), leaf(PredicateSubset, 2)), leaf(PredicateEquality, 3)),
			"subset{1} and subset{2} or equality{3}"},
		{And(Or(leaf(PredicateSubset, 1), leaf(PredicateSubset, 2)), leaf(PredicateEquality, 3)),
			"(subset{1} or subset{2}) and equality{3}"},
		{Not(And(leaf(PredicateSubset, 1), leaf(PredicateSubset, 2))),
			"not (subset{1} and subset{2})"},
		{Not(Not(leaf(PredicateSubset, 1))), "not not subset{1}"},
		{Or(Not(Or(leaf(PredicateSubset, 1), leaf(PredicateSubset, 2))), leaf(PredicateSubset, 3)),
			"not (subset{1} or subset{2}) or subset{3}"},
	}
	for _, c := range cases {
		got := c.expr.String()
		if got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
		back, err := ParseExpr(got)
		if err != nil {
			t.Errorf("ParseExpr(%q): %v", got, err)
			continue
		}
		if !reflect.DeepEqual(back, c.expr) {
			t.Errorf("round trip of %q: got %q (%#v)", c.want, back.String(), back)
		}
	}
}

// TestParseExprLenient pins the accepted variations — surrounding and
// inner whitespace, case-insensitive keywords — by the canonical form
// each prints back.
func TestParseExprLenient(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"subset{1}and not superset{2}", "subset{1} and not superset{2}"},
		{"  SUBSET{1} AND NOT SUPERSET{2}  ", "subset{1} and not superset{2}"},
		{"( subset{1} )", "subset{1}"},
		{"((subset{1} or subset{2}))", "subset{1} or subset{2}"},
		{"not(subset{1})", "not subset{1}"},
		{"subset { 1 2 } or equality {}", "subset{1 2} or equality{}"},
	} {
		e, err := ParseExpr(c.in)
		if err != nil {
			t.Errorf("ParseExpr(%q): unexpected error %v", c.in, err)
		} else if got := e.String(); got != c.want {
			t.Errorf("ParseExpr(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestParseExprOffsets pins the satellite contract: every syntax error
// is a *ParseError whose Offset points at the failing byte and whose
// message carries both.
func TestParseExprOffsets(t *testing.T) {
	cases := []struct {
		in     string
		offset int
	}{
		{"", 0},
		{"between{1 2}", 0},
		{"subset(1 2)", 6},
		{"subset{1 2", 10},
		{"subset{1 b 3}", 9},
		{"subset{4294967296}", 7},
		{"subset{1} and", 13},
		{"subset{1} and and subset{2}", 14},
		{"(subset{1} or subset{2}", 23},
		{"subset{1}) or subset{2}", 9},
		{"subset{1} subset{2}", 10},
		{"not", 3},
		{"subset{1} or (not)", 17},
		// Nesting is capped (maxExprDepth): one level too many fails at
		// the first token of the too-deep level instead of recursing, and
		// so does the 8 MB request body that used to overflow the stack.
		{nested("(", maxExprDepth+1), maxExprDepth + 1},
		{nested("not ", maxExprDepth+1), 4 * (maxExprDepth + 1)},
		{nested("(", 4_000_000), maxExprDepth + 1},
		{nested("not ", 2_000_000), 4 * (maxExprDepth + 1)},
	}
	for _, open := range []string{"(", "not "} {
		if _, err := ParseExpr(nested(open, maxExprDepth)); err != nil {
			t.Errorf("%d levels of %q must parse: %v", maxExprDepth, open, err)
		}
	}
	for _, c := range cases {
		_, err := ParseExpr(c.in)
		if err == nil {
			t.Errorf("ParseExpr(%q): expected error", c.in)
			continue
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("ParseExpr(%q): error %v is not a *ParseError", c.in, err)
			continue
		}
		if pe.Offset != c.offset {
			t.Errorf("ParseExpr(%q): offset %d, want %d (%v)", c.in, pe.Offset, c.offset, err)
		}
		if pe.Input != c.in {
			t.Errorf("ParseExpr(%q): Input = %q", c.in, pe.Input)
		}
		if !strings.Contains(err.Error(), "setcontain: query") ||
			!strings.Contains(err.Error(), "offset") {
			t.Errorf("ParseExpr(%q): message %q lacks the offset form", c.in, err)
		}
	}
}

// nested wraps a leaf in depth levels of "(" ... ")" or "not ".
func nested(open string, depth int) string {
	s := strings.Repeat(open, depth) + "subset{1}"
	if open == "(" {
		s += strings.Repeat(")", depth)
	}
	return s
}

// TestParseQueryOffsets pins that the plain query form carries the same
// positioned errors as any expression.
func TestParseQueryOffsets(t *testing.T) {
	cases := []struct {
		in     string
		offset int
	}{
		{"between{1 2}", 0},
		{"subset", 6},
		{"subset 1 2}", 7},
		{"{1 2}", 0},
		{"subset{-1}", 7},
		{"  subset{-1}", 9},
		{"subset{1.5}", 8},
		{"subset{99999999999999}", 7},
		{"subset{1 2}trailing", 11},
		{"subset{1 {2} 3}", 9},
		{"subset{1}}", 9},
	}
	for _, c := range cases {
		_, err := parseQuery(c.in)
		if err == nil {
			t.Errorf("parseQuery(%q): expected error", c.in)
			continue
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("parseQuery(%q): error %v is not a *ParseError", c.in, err)
			continue
		}
		if pe.Offset != c.offset {
			t.Errorf("parseQuery(%q): offset %d, want %d (%v)", c.in, pe.Offset, c.offset, err)
		}
	}
}

// randExpr builds a random expression: leaves carry 0-4 items drawn
// from [0, domain), inner nodes pick AND/OR/NOT until depth runs out.
func randExpr(rng *rand.Rand, depth, domain int) *Expr {
	if depth == 0 || rng.Intn(10) < 4 {
		var items []Item
		for i, k := 0, rng.Intn(5); i < k; i++ {
			items = append(items, Item(rng.Intn(domain)))
		}
		preds := []Predicate{PredicateSubset, PredicateEquality, PredicateSuperset}
		return ExprOf(Query{Pred: preds[rng.Intn(3)], Items: items})
	}
	switch rng.Intn(10) {
	case 0, 1:
		return Not(randExpr(rng, depth-1, domain))
	case 2, 3, 4, 5:
		kids := make([]*Expr, 2+rng.Intn(2))
		for i := range kids {
			kids[i] = randExpr(rng, depth-1, domain)
		}
		return And(kids...)
	default:
		kids := make([]*Expr, 2+rng.Intn(2))
		for i := range kids {
			kids[i] = randExpr(rng, depth-1, domain)
		}
		return Or(kids...)
	}
}

func TestExprRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 500; i++ {
		e := randExpr(rng, 3, 50)
		s := e.String()
		back, err := ParseExpr(s)
		if err != nil {
			t.Fatalf("ParseExpr(%q): %v", s, err)
		}
		if !reflect.DeepEqual(back, e) {
			t.Fatalf("round trip of %q: got %q", s, back.String())
		}
	}
}

// FuzzParseExpr fuzzes the grammar for parse stability: any input that
// parses must print to a form that reparses to the same tree, and any
// input that fails must fail with a positioned *ParseError inside the
// input's bounds.
func FuzzParseExpr(f *testing.F) {
	for _, seed := range []string{
		"subset{3 17 29}",
		"subset{1 2} and not superset{3}",
		"(subset{1} or equality{2 3}) and subset{4}",
		"not not subset{}",
		"SUBSET {007} OR superset{4294967295}",
		"subset{1} and (subset{2",
		"between{1}",
		nested("(", maxExprDepth), nested("(", maxExprDepth+1), nested("(", 100_000),
		nested("not ", maxExprDepth), nested("not ", maxExprDepth+1), nested("not ", 100_000),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		e, err := ParseExpr(in)
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("ParseExpr(%q): error %v is not a *ParseError", in, err)
			}
			if pe.Offset < 0 || pe.Offset > len(in) {
				t.Fatalf("ParseExpr(%q): offset %d out of bounds", in, pe.Offset)
			}
			return
		}
		printed := e.String()
		back, err := ParseExpr(printed)
		if err != nil {
			t.Fatalf("reparse of %q (from %q): %v", printed, in, err)
		}
		if again := back.String(); again != printed {
			t.Fatalf("print of %q unstable: %q then %q", in, printed, again)
		}
	})
}
