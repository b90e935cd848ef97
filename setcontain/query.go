package setcontain

import (
	"errors"
	"fmt"
	"strings"
)

// Predicate names one of the three containment relations.
type Predicate int

// The containment relations.
const (
	// PredicateSubset matches records whose sets contain every query
	// item (the query is a subset of the record).
	PredicateSubset Predicate = iota
	// PredicateEquality matches records whose sets equal the query.
	PredicateEquality
	// PredicateSuperset matches records contained in the query (the
	// query is a superset of the record).
	PredicateSuperset
)

// ErrUnknownPredicate reports an invalid Predicate value. Every
// evaluation path — Eval, EvalAppend, and the expression planner —
// returns exactly this sentinel (never wrapped twice) for a
// query whose Pred is not one of the three containment relations, so
// callers can test errors.Is(err, ErrUnknownPredicate) uniformly.
var ErrUnknownPredicate = errors.New("setcontain: unknown predicate")

// String returns the predicate's conventional lowercase name, as the
// CLIs spell it: "subset", "equality", or "superset".
func (p Predicate) String() string {
	switch p {
	case PredicateSubset:
		return "subset"
	case PredicateEquality:
		return "equality"
	case PredicateSuperset:
		return "superset"
	default:
		return fmt.Sprintf("Predicate(%d)", int(p))
	}
}

// known reports whether p is one of the three containment relations.
func (p Predicate) known() bool {
	return p == PredicateSubset || p == PredicateEquality || p == PredicateSuperset
}

// ParsePredicate resolves the names produced by Predicate.String,
// case-insensitively.
func ParsePredicate(s string) (Predicate, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "subset":
		return PredicateSubset, nil
	case "equality":
		return PredicateEquality, nil
	case "superset":
		return PredicateSuperset, nil
	default:
		return 0, fmt.Errorf("setcontain: unknown predicate %q (want subset, equality, or superset)", s)
	}
}

// Query is a first-class containment query: a predicate plus its items.
// It evaluates against any Queryable and is the unit Store executes.
type Query struct {
	Pred  Predicate
	Items []Item
}

// SubsetQuery returns a Query matching records that contain every item.
func SubsetQuery(items []Item) Query { return Query{Pred: PredicateSubset, Items: items} }

// EqualityQuery returns a Query matching records equal to items.
func EqualityQuery(items []Item) Query { return Query{Pred: PredicateEquality, Items: items} }

// SupersetQuery returns a Query matching records contained in items.
func SupersetQuery(items []Item) Query { return Query{Pred: PredicateSuperset, Items: items} }

// String renders the query log-friendly, e.g. "subset{3 17 29}".
func (q Query) String() string {
	var b strings.Builder
	b.WriteString(q.Pred.String())
	b.WriteByte('{')
	for i, it := range q.Items {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", it)
	}
	b.WriteByte('}')
	return b.String()
}

// Queryable is anything that answers the three containment predicates:
// an Index, a Reader, or an Engine.
type Queryable interface {
	Subset(qs []Item) ([]uint32, error)
	Equality(qs []Item) ([]uint32, error)
	Superset(qs []Item) ([]uint32, error)
}

// predicates is one Query primitive spelled as the Queryable method
// set, for the sharded engine and reader, whose three predicates differ
// only in the Query they scatter.
type predicates func(q Query) ([]uint32, error)

func (p predicates) Subset(qs []Item) ([]uint32, error)   { return p(SubsetQuery(qs)) }
func (p predicates) Equality(qs []Item) ([]uint32, error) { return p(EqualityQuery(qs)) }
func (p predicates) Superset(qs []Item) ([]uint32, error) { return p(SupersetQuery(qs)) }

// Eval answers the query against t. This is the single dispatch point
// from predicates to engine methods.
func (q Query) Eval(t Queryable) ([]uint32, error) {
	switch q.Pred {
	case PredicateSubset:
		return t.Subset(q.Items)
	case PredicateEquality:
		return t.Equality(q.Items)
	case PredicateSuperset:
		return t.Superset(q.Items)
	default:
		return nil, ErrUnknownPredicate
	}
}

// appendQueryable is the append-form capability: answers are appended
// to a caller-provided slice instead of freshly allocated. The OIF
// index and its readers implement it on the zero-allocation query
// path; EvalAppend falls back to Eval plus a copy for the rest.
type appendQueryable interface {
	AppendSubset(dst []uint32, qs []Item) ([]uint32, error)
	AppendEquality(dst []uint32, qs []Item) ([]uint32, error)
	AppendSuperset(dst []uint32, qs []Item) ([]uint32, error)
}

// backendOf unwraps t to the backend that answers for it — an Index to
// its engine, an OIF engine to its index, a Reader to the backend reader
// it holds — and returns any other target as is. It is the one place a
// target is unwrapped, so a capability (append form, candidate pushdown)
// is only ever found on the backend that truly implements it.
func backendOf(t Queryable) Queryable {
	switch v := t.(type) {
	case *Index:
		return backendOf(v.eng)
	case *Reader:
		return v.r
	case *oifEngine:
		return v.b
	}
	return t
}

// EvalAppend answers the query against t, appending the answer to dst
// and returning the extended slice — the one query primitive every
// layer above the backends answers through. Existing dst contents are
// preserved. With an OIF Index, Engine, or Reader as the target and warm
// caches the call performs no allocations beyond growing dst; other
// targets answer through Eval and copy. When nothing matched, dst itself
// comes back (nil stays nil). An invalid predicate returns the bare
// ErrUnknownPredicate sentinel on both paths.
func (q Query) EvalAppend(dst []uint32, t Queryable) ([]uint32, error) {
	if !q.Pred.known() {
		return nil, ErrUnknownPredicate
	}
	t = backendOf(t)
	if at, ok := t.(appendQueryable); ok {
		switch q.Pred {
		case PredicateSubset:
			return at.AppendSubset(dst, q.Items)
		case PredicateEquality:
			return at.AppendEquality(dst, q.Items)
		default:
			return at.AppendSuperset(dst, q.Items)
		}
	}
	ids, err := q.Eval(t)
	if err != nil {
		return nil, err
	}
	return appendFresh(dst, ids), nil
}

// appendFresh appends a freshly allocated answer nobody else holds to
// dst under the append forms' rule: dst itself when nothing matched,
// and — no backing array to preserve — the fresh slice as is, no copy,
// when dst has none.
func appendFresh(dst, ids []uint32) []uint32 {
	if cap(dst) == 0 && len(ids) > 0 {
		return ids
	}
	return append(dst, ids...)
}
