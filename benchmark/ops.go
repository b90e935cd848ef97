package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/naive"
	querygen "repro/internal/workload"
	"repro/setcontain"
	"repro/setcontain/serve"
)

// op is one operation of a pool: a containment query, a boolean
// expression, or an expression with LIMIT, with the oracle's answer.
type op struct {
	idx   int32            // position in the pool, set once the pool is complete
	class uint8            // classQuery, classExpr or classLimit
	q     setcontain.Query // classQuery
	expr  *setcontain.Expr // every class (one-leaf for classQuery)
	limit int              // classLimit
	spec  serve.QuerySpec  // the same op on the wire
	want  []uint32         // internal/naive's answer (first limit ids for classLimit)
}

// text is the op's canonical form: pool distinctness and the op-stream
// hash are defined over it.
func (o *op) text() string {
	if o.class == classLimit {
		return fmt.Sprintf("%s limit %d", o.expr, o.limit)
	}
	return o.expr.String()
}

func queryOp(q querygen.Query) *op {
	pq, err := experiments.AsQuery(q)
	if err != nil {
		panic(err) // the generator only produces the three known kinds
	}
	return &op{class: classQuery, q: pq, expr: setcontain.ExprOf(pq), spec: serve.SpecOf(pq)}
}

func exprOp(e *setcontain.Expr, limit int) *op {
	o := &op{class: classExpr, expr: e, limit: limit, spec: serve.SpecOfExpr(e)}
	if limit > 0 {
		o.class = classLimit
		// A one-leaf spec would lose the limit's expression form; the
		// LIMIT ops are all multi-leaf, so SpecOfExpr is textual here.
		o.spec.Limit = limit
	}
	return o
}

// hotItems returns the n most frequent items of d, most frequent first
// (ties by item id, so the choice is a function of the data alone).
func hotItems(d *dataset.Dataset, n int) []dataset.Item {
	sup := d.Support()
	items := make([]dataset.Item, len(sup))
	for i := range items {
		items[i] = dataset.Item(i)
	}
	sort.Slice(items, func(a, b int) bool {
		if sup[items[a]] != sup[items[b]] {
			return sup[items[a]] > sup[items[b]]
		}
		return items[a] < items[b]
	})
	if n > len(items) {
		n = len(items)
	}
	return items[:n]
}

// hotDrawer hands out subset queries forced to contain a given hot item,
// drawing them from the generator in batches: SubsetQueriesWithItem
// scans the dataset once per call, not once per query.
type hotDrawer struct {
	gen  *querygen.Generator
	pool map[[2]int][]querygen.Query
}

func (h *hotDrawer) draw(item dataset.Item, size int) (querygen.Query, bool) {
	key := [2]int{int(item), size}
	if len(h.pool[key]) == 0 {
		h.pool[key] = h.gen.SubsetQueriesWithItem(item, size, 64)
		if len(h.pool[key]) == 0 {
			return querygen.Query{}, false
		}
	}
	q := h.pool[key][0]
	h.pool[key] = h.pool[key][1:]
	return q, true
}

// without returns items minus it, keeping order.
func without(items []dataset.Item, it dataset.Item) []dataset.Item {
	out := make([]dataset.Item, 0, len(items))
	for _, x := range items {
		if x != it {
			out = append(out, x)
		}
	}
	return out
}

func subsetLeaf(items ...dataset.Item) *setcontain.Expr {
	s := append([]dataset.Item(nil), items...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return setcontain.ExprOf(setcontain.SubsetQuery(s))
}

// genMix builds the op pool `mix`: n distinct ops in a fixed order — 60 %
// single-predicate containment (20/20/20 subset/equality/superset over
// |qs| in {2,4,8}; half the subset queries drawn uniformly from records
// as in the paper's §5, half forced to contain one of the ten most
// frequent items), 30 % boolean expressions (AND of 2-3 subset leaves
// with one hot leaf; OR of two hot subsets; A AND NOT B) and 10 % the
// same expressions with LIMIT 10. Fewer ops come back when the dataset
// cannot supply n distinct ones.
func genMix(d *dataset.Dataset, seed int64, n int) []*op {
	gen := querygen.NewGenerator(d, seed)
	ranked := hotItems(d, 110)
	hot := ranked[:min(10, len(ranked))]
	hd := &hotDrawer{gen: gen, pool: map[[2]int][]querygen.Query{}}
	sizes := []int{2, 4, 8}
	seen := map[string]bool{}
	var ops []*op
	// fill adds count distinct ops from draw, giving up after a bounded
	// number of duplicate or failed draws.
	fill := func(count int, draw func(i int) *op) []*op {
		var added []*op
		for i := 0; len(added) < count && i < 20*count+100; i++ {
			o := draw(i)
			if o == nil || seen[o.text()] {
				continue
			}
			seen[o.text()] = true
			added = append(added, o)
		}
		ops = append(ops, added...)
		return added
	}
	one := func(qs []querygen.Query) *op {
		if len(qs) == 0 {
			return nil
		}
		return queryOp(qs[0])
	}
	hotQuery := func(i, size int) (querygen.Query, dataset.Item, bool) {
		it := hot[i%len(hot)]
		q, ok := hd.draw(it, size)
		return q, it, ok
	}

	fill(n/10, func(i int) *op { return one(gen.SubsetQueries(sizes[i%3], 1)) })
	fill(n/10, func(i int) *op {
		q, _, ok := hotQuery(i, sizes[i%3])
		if !ok {
			return nil
		}
		return queryOp(q)
	})
	fill(n/5, func(i int) *op { return one(gen.EqualityQueries(sizes[i%3], 1)) })
	fill(n/5, func(i int) *op { return one(gen.SupersetQueries(sizes[i%3], 1)) })

	and := fill(n/10, func(i int) *op {
		// A record's hot query of 4 or 6 items split into leaves of two:
		// the conjunction always has that record as an answer.
		q, it, ok := hotQuery(i, 4+2*(i%2))
		if !ok {
			return nil
		}
		rest := without(q.Items, it)
		kids := []*setcontain.Expr{subsetLeaf(it, rest[0])}
		for j := 1; j+1 < len(rest); j += 2 {
			kids = append(kids, subsetLeaf(rest[j], rest[j+1]))
		}
		return exprOp(setcontain.And(kids...), 0)
	})
	// The OR and AND NOT shapes are the pool's heaviest ops and set its
	// tail, so their leaves are stratified, not sampled: leaf {h, c} pairs
	// one of the ten hottest items with a companion of frequency rank
	// 11-110, both on a fixed schedule. Answer sizes then depend on the
	// ranks alone, and the pool's p99 moves little from seed to seed.
	// Both shapes use the same leaf pairs.
	twoHot := func(i int) (a, b *setcontain.Expr, ok bool) {
		if len(ranked) < 110 {
			return nil, nil, false
		}
		comp := ranked[10:110]
		// The second hot item is 1..9 places after the first, so the two
		// always differ and every pair comes up.
		h1, h2 := hot[i%10], hot[(i+1+(i/10)%9)%10]
		return subsetLeaf(h1, comp[(7*i)%100]), subsetLeaf(h2, comp[(13*i+50)%100]), true
	}
	or := fill(n/10, func(i int) *op {
		a, b, ok := twoHot(i)
		if !ok {
			return nil
		}
		return exprOp(setcontain.Or(a, b), 0)
	})
	andNot := fill(n/10, func(i int) *op {
		a, b, ok := twoHot(i)
		if !ok {
			return nil
		}
		return exprOp(setcontain.And(a, setcontain.Not(b)), 0)
	})
	// LIMIT 10 over the same expressions, the three shapes in turn.
	shapes := [][]*op{and, or, andNot}
	for i := 0; i < n/10; i++ {
		if shape := shapes[i%3]; i/3 < len(shape) {
			ops = append(ops, exprOp(shape[i/3].expr, 10))
		}
	}

	rand.New(rand.NewSource(seed)).Shuffle(len(ops), func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
	return ops
}

// paperSizes are the |qs| of the paper's §5 query workloads.
var paperSizes = []int{2, 4, 8, 12, 16, 20}

// genPaper builds the §5 protocol's pool: perSize queries for each of the
// three predicates and each |qs| in paperSizes, drawn from existing
// records so every query has an answer, grouped by predicate and size as
// the paper runs them.
func genPaper(d *dataset.Dataset, seed int64, perSize int) []*op {
	gen := querygen.NewGenerator(d, seed)
	var ops []*op
	for _, k := range []querygen.Kind{querygen.Subset, querygen.Equality, querygen.Superset} {
		for _, size := range paperSizes {
			for _, q := range gen.Queries(k, size, perSize) {
				ops = append(ops, queryOp(q))
			}
		}
	}
	return ops
}

// streamHash is the hex SHA-256 of the ops' canonical texts in order.
func streamHash(ops []*op) string {
	h := sha256.New()
	for _, o := range ops {
		h.Write([]byte(o.text()))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// --- oracle ---------------------------------------------------------------

// naiveEval answers one containment query by internal/naive's scan.
func naiveEval(d *dataset.Dataset, q setcontain.Query) []uint32 {
	switch q.Pred {
	case setcontain.PredicateSubset:
		return naive.Subset(d, q.Items)
	case setcontain.PredicateEquality:
		return naive.Equality(d, q.Items)
	default:
		return naive.Superset(d, q.Items)
	}
}

// leaves appends e's distinct leaf queries to into, keyed by their text.
func leaves(e *setcontain.Expr, into map[string]setcontain.Query) {
	if q, ok := e.AsQuery(); ok {
		into[q.String()] = q
		return
	}
	for _, k := range e.Kids {
		leaves(k, into)
	}
}

// computeOracle fills in want for every op: each distinct leaf is scanned
// once by internal/naive (in parallel, one goroutine per CPU), and the
// boolean ops are combined from the leaf answers by plain sorted-set
// algebra. It returns the time spent, which is reported as
// bench.oracle_s and excluded from setup_s.
func computeOracle(d *dataset.Dataset, ops []*op) time.Duration {
	start := time.Now()
	byText := map[string]setcontain.Query{}
	for _, o := range ops {
		leaves(o.expr, byText)
	}
	texts := make([]string, 0, len(byText))
	for t := range byText {
		texts = append(texts, t)
	}
	sort.Strings(texts)
	answers := make([][]uint32, len(texts))
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(texts); i += workers {
				answers[i] = naiveEval(d, byText[texts[i]])
			}
		}(w)
	}
	wg.Wait()
	leafAnswer := make(map[string][]uint32, len(texts))
	for i, t := range texts {
		leafAnswer[t] = answers[i]
	}
	universe := make([]uint32, d.Len())
	for i := range universe {
		universe[i] = uint32(i + 1)
	}
	for _, o := range ops {
		o.want = evalOracle(o.expr, leafAnswer, universe)
		if o.class == classLimit && len(o.want) > o.limit {
			o.want = o.want[:o.limit]
		}
	}
	return time.Since(start)
}

// evalOracle combines leaf answers into the expression's answer.
func evalOracle(e *setcontain.Expr, leaf map[string][]uint32, universe []uint32) []uint32 {
	if q, ok := e.AsQuery(); ok {
		return leaf[q.String()]
	}
	switch e.Op {
	case setcontain.OpAnd:
		acc := evalOracle(e.Kids[0], leaf, universe)
		for _, k := range e.Kids[1:] {
			acc = intersect(acc, evalOracle(k, leaf, universe))
		}
		return acc
	case setcontain.OpOr:
		var acc []uint32
		for _, k := range e.Kids {
			acc = union(acc, evalOracle(k, leaf, universe))
		}
		return acc
	default: // OpNot
		return difference(universe, evalOracle(e.Kids[0], leaf, universe))
	}
}

func intersect(a, b []uint32) []uint32 {
	out := []uint32{}
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	return out
}

func union(a, b []uint32) []uint32 {
	out := make([]uint32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// difference returns a minus b.
func difference(a, b []uint32) []uint32 {
	out := []uint32{}
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			out = append(out, x)
		}
	}
	return out
}
