package setcontain

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/stats"
)

// The expression planner turns an Expr into a cost-ordered evaluation
// plan. The same skew statistics the paper exploits for index layout
// drive it at query time: a SupportProfile (per-item supports plus the
// Zipf exponent stats.ProfileOfSupports fits to them) costs every
// containment leaf by an estimated answer size, AND nodes evaluate
// their children rarest-first so the intermediate intersection
// collapses as early as possible, and an intermediate that reaches
// empty short-circuits the remaining children entirely — the planner's
// measurable win on skewed workloads, where a rare leaf ANDed with hot
// leaves usually empties the result before the hot (expensive) leaves
// run. Leaves evaluate through the zero-allocation EvalAppend path and
// answers combine with the galloping sorted-slice set algebra.

// SupportProfile is the planner's view of an index's statistics: the
// per-item support table and the distribution summary derived from it.
// Index.Supports caches one per index generation — profiling sorts the
// support table once; planning a single expression is then linear in
// its size. The profile describes the merged structures only (pending
// delta inserts and tombstones are not reflected), so it is an
// estimate for ordering work, never an answer.
type SupportProfile struct {
	// PerItem[i] is the support of item i (records containing it).
	PerItem []int64
	// NumRecords is the universe size leaf costs are capped at.
	NumRecords int64
	// Theta is the Zipf exponent stats.ProfileOfSupports fitted to the
	// support table — the skew signal, surfaced for plan introspection.
	Theta float64
}

// supportsOf profiles an engine's current support table for planning.
func supportsOf(eng Engine) *SupportProfile {
	sup := eng.ItemSupports()
	return &SupportProfile{
		PerItem:    sup,
		NumRecords: int64(eng.NumRecords()),
		Theta:      stats.ProfileOfSupports(sup).Theta,
	}
}

// Support returns the item's support; items outside the profiled
// domain have support 0.
func (sp *SupportProfile) Support(it Item) int64 {
	if int(it) >= len(sp.PerItem) {
		return 0
	}
	return sp.PerItem[it]
}

// leafCost estimates a containment leaf's answer size. Subset and
// equality answers are bounded by the rarest queried item's support
// (every answer record contains all of them); the empty subset is the
// universe, the empty equality matches only empty-set records. A
// superset answer is bounded by the summed supports (each answer
// record's items all lie in the query), capped at the universe.
func (sp *SupportProfile) leafCost(q Query) int64 {
	switch q.Pred {
	case PredicateSubset, PredicateEquality:
		if len(q.Items) == 0 {
			if q.Pred == PredicateEquality {
				return 0
			}
			return sp.NumRecords
		}
		min := sp.Support(q.Items[0])
		for _, it := range q.Items[1:] {
			if s := sp.Support(it); s < min {
				min = s
			}
		}
		return min
	default: // superset
		var sum int64
		for _, it := range q.Items {
			sum += sp.Support(it)
			if sum >= sp.NumRecords {
				return sp.NumRecords
			}
		}
		return sum
	}
}

// ExprPlan is a planned expression: the cost-annotated tree with every
// AND node's children reordered rarest-first. Plans are immutable and
// safe for concurrent evaluation against different targets.
type ExprPlan struct {
	// Root is the plan tree, mirroring the expression's shape up to
	// AND-child order.
	Root *PlanNode
	// NumRecords is the universe size the costs were estimated against.
	NumRecords int64
	// Theta is the support profile's fitted Zipf exponent.
	Theta float64
}

// PlanNode is one node of a plan: the expression node plus its
// estimated answer size.
type PlanNode struct {
	// Op, Leaf, and Kids mirror Expr; an AND node's Kids are reordered —
	// positive children cost-ascending, NOT children after them.
	Op   ExprOp
	Leaf Query
	Kids []*PlanNode
	// Cost is the node's estimated answer size — an ordering heuristic
	// derived from the support profile, not a guaranteed bound.
	Cost int64
	// Leaves is the number of containment leaves in the subtree — what
	// a short-circuit past this node saves.
	Leaves int
}

// PlanExpr plans the expression against a support profile: costs every
// node, reorders AND children rarest-first (NOT children last, as set
// differences off the accumulated intersection), and returns the
// reusable plan. An invalid predicate in any leaf returns
// ErrUnknownPredicate.
func PlanExpr(e *Expr, sup *SupportProfile) (*ExprPlan, error) {
	if sup == nil {
		return nil, errors.New("setcontain: PlanExpr needs a support profile")
	}
	if err := e.validate(); err != nil {
		return nil, err
	}
	return &ExprPlan{Root: planNode(e, sup), NumRecords: sup.NumRecords, Theta: sup.Theta}, nil
}

func planNode(e *Expr, sup *SupportProfile) *PlanNode {
	n := &PlanNode{Op: e.Op, Leaf: e.Leaf}
	switch e.Op {
	case OpLeaf:
		n.Cost = sup.leafCost(e.Leaf)
		n.Leaves = 1
	case OpNot:
		k := planNode(e.Kids[0], sup)
		n.Kids = []*PlanNode{k}
		n.Leaves = k.Leaves
		if n.Cost = sup.NumRecords - k.Cost; n.Cost < 0 {
			n.Cost = 0
		}
	case OpAnd:
		n.Kids = planKids(e, sup, &n.Leaves)
		// Positive children cost-ascending first — the cheapest
		// (rarest) intersection runs before the expensive ones and an
		// empty intermediate skips the rest — then NOT children, whose
		// subtractions only ever shrink the accumulator and are cheapest
		// once it is small. NOTs keep their written order.
		sort.SliceStable(n.Kids, func(i, j int) bool {
			ni, nj := n.Kids[i].Op == OpNot, n.Kids[j].Op == OpNot
			if ni || nj {
				return nj && !ni
			}
			return n.Kids[i].Cost < n.Kids[j].Cost
		})
		n.Cost = sup.NumRecords
		for _, k := range n.Kids {
			if k.Op != OpNot && k.Cost < n.Cost {
				n.Cost = k.Cost
			}
		}
	case OpOr:
		// Union is commutative, so the order changes no answer. OR
		// children are cost-sorted anyway: legs written in different
		// orders then plan alike wherever their costs differ, so the
		// explain output follows cost, not spelling.
		n.Kids = planKids(e, sup, &n.Leaves)
		sort.SliceStable(n.Kids, func(i, j int) bool {
			return n.Kids[i].Cost < n.Kids[j].Cost
		})
		for _, k := range n.Kids {
			n.Cost += k.Cost
			if n.Cost >= sup.NumRecords {
				n.Cost = sup.NumRecords
				break
			}
		}
	}
	return n
}

func planKids(e *Expr, sup *SupportProfile, leaves *int) []*PlanNode {
	kids := make([]*PlanNode, len(e.Kids))
	for i, k := range e.Kids {
		kids[i] = planNode(k, sup)
		*leaves += kids[i].Leaves
	}
	return kids
}

// String renders the plan as an indented tree with per-node answer-size
// estimates — what oifquery's explain command and test failures print:
//
//	and est=3
//	  subset{977} est=3
//	  subset{1 2} est=4100
//	  not est=5900
//	    subset{3} est=4100
func (p *ExprPlan) String() string {
	var b strings.Builder
	p.Root.write(&b, 0)
	return strings.TrimSuffix(b.String(), "\n")
}

func (n *PlanNode) write(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	if n.Op == OpLeaf {
		fmt.Fprintf(b, "%s est=%d\n", n.Leaf, n.Cost)
		return
	}
	fmt.Fprintf(b, "%s est=%d\n", n.Op, n.Cost)
	for _, k := range n.Kids {
		k.write(b, depth+1)
	}
}

// ExprEvalStats reports what one planned evaluation did: how many
// containment leaves actually ran against the index, how many of those
// were answered at the accumulator's candidates, under AND or NOT, and
// how many leaves an empty accumulator skipped entirely.
type ExprEvalStats struct {
	EvaluatedLeaves int
	StreamedLeaves  int
	SkippedLeaves   int
}

// exprEval is one planned evaluation: the target (unwrapped to its
// backend) and its discovered candidate pushdown, the lazily
// computed universe (the subset{} answer — every live record id), the
// owning Evaluator whose free list recycles intermediate buffers, and
// the leaf accounting.
type exprEval struct {
	t            Queryable
	owner        *Evaluator
	within       subsetWithiner // candidate pushdown, nil when unavailable
	universe     []uint32
	haveUniverse bool
	stats        ExprEvalStats
}

// take pops a recycled buffer from the owning Evaluator's free list
// (or nil, growing on first use).
func (ev *exprEval) take() []uint32 {
	free := ev.owner.free
	if n := len(free); n > 0 {
		b := free[n-1][:0]
		ev.owner.free = free[:n-1]
		return b
	}
	return nil
}

// put recycles a buffer the evaluator owns; an un-owned slice — the
// shared universe — is never recycled.
func (ev *exprEval) put(b []uint32, owned bool) {
	if owned && cap(b) > 0 {
		ev.owner.free = append(ev.owner.free, b)
	}
}

func (ev *exprEval) getUniverse() ([]uint32, error) {
	if !ev.haveUniverse {
		ids, err := SubsetQuery(nil).EvalAppend(nil, ev.t)
		if err != nil {
			return nil, err
		}
		ev.universe = ids
		ev.haveUniverse = true
	}
	return ev.universe, nil
}

// eval computes the node's answer. The returned slice is owned by the
// evaluator's free list when owned is true; false marks a shared slice
// — the universe — which must not be recycled or mutated.
func (ev *exprEval) eval(n *PlanNode) (ids []uint32, owned bool, err error) {
	switch n.Op {
	case OpLeaf:
		ev.stats.EvaluatedLeaves++
		ids, err := n.Leaf.EvalAppend(ev.take(), ev.t)
		if err != nil {
			return nil, false, err
		}
		return ids, true, nil
	case OpNot:
		child, childOwned, err := ev.eval(n.Kids[0])
		if err != nil {
			return nil, false, err
		}
		uni, err := ev.getUniverse()
		if err != nil {
			return nil, false, err
		}
		out := differenceInto(ev.take(), uni, child)
		ev.put(child, childOwned)
		return out, true, nil
	case OpOr:
		return ev.union(n.Kids, nil, 0)
	default: // OpAnd
		// The rarest positive child (the universe, in an AND of NOTs
		// only) starts the accumulator; the rest are restricted to it.
		rest := n.Kids[1:]
		if n.Kids[0].Op == OpNot {
			rest = n.Kids
			ids, err = ev.getUniverse()
		} else {
			ids, owned, err = ev.eval(n.Kids[0])
		}
		if err != nil {
			return nil, false, err
		}
		return ev.restrictAll(rest, ids, owned)
	}
}

// pushes reports whether restrict answers n at cands rather than in
// full: an inner node always, a subset leaf when cands is no larger than
// its estimated answer (the pushdown maps and sorts every candidate),
// nothing on the materializing reference.
func (ev *exprEval) pushes(n *PlanNode, cands []uint32) bool {
	if n.Op == OpLeaf {
		return ev.within != nil && n.Leaf.Pred == PredicateSubset && int64(len(cands)) <= n.Cost
	}
	return ev.within != nil
}

// restrict answers n ∩ cands (sorted unique, never mutated); an empty
// cands skips the subtree. A NOT subtracts from cands its child's
// restriction, or the child's full answer when the child does not push.
func (ev *exprEval) restrict(n *PlanNode, cands []uint32) (ids []uint32, owned bool, err error) {
	if len(cands) == 0 {
		ev.stats.SkippedLeaves += n.Leaves
		return nil, false, nil
	}
	switch {
	case n.Op == OpNot:
		if ev.pushes(n.Kids[0], cands) {
			ids, owned, err = ev.restrict(n.Kids[0], cands)
		} else {
			ids, owned, err = ev.eval(n.Kids[0])
		}
		if err != nil {
			return nil, false, err
		}
		out := differenceInto(ev.take(), cands, ids)
		ev.put(ids, owned)
		return out, true, nil
	case !ev.pushes(n, cands):
		if ids, owned, err = ev.eval(n); err != nil {
			return nil, false, err
		}
		out := intersectInto(ev.take(), cands, ids)
		ev.put(ids, owned)
		return out, true, nil
	case n.Op == OpLeaf: // Theorem 1's discard rule, per candidate
		ev.stats.EvaluatedLeaves++
		ev.stats.StreamedLeaves++
		ids, err = ev.within.AppendSubsetWithin(ev.take(), n.Leaf.Items, cands)
		return ids, err == nil, err
	case n.Op == OpOr:
		return ev.union(n.Kids, cands, 0)
	}
	return ev.restrictAll(n.Kids, cands, false)
}

// restrictAll folds kids through restrict from acc, recycling each
// superseded accumulator.
func (ev *exprEval) restrictAll(kids []*PlanNode, acc []uint32, owned bool) ([]uint32, bool, error) {
	for _, k := range kids {
		out, outOwned, err := ev.restrict(k, acc)
		if err != nil {
			return nil, false, err
		}
		ev.put(acc, owned)
		acc, owned = out, outOwned
	}
	return acc, owned, nil
}

// union merges the kids' answers in plan order, restricted to cands
// unless it is nil. With limit > 0 each answer, and each partial union,
// is cut to its first limit ids before the next merge: what it returns
// is then only the union's first limit ids, which is all a limited root
// OR needs.
func (ev *exprEval) union(kids []*PlanNode, cands []uint32, limit int) (acc []uint32, accOwned bool, err error) {
	for i, k := range kids {
		var ids []uint32
		var kidOwned bool
		if cands != nil {
			ids, kidOwned, err = ev.restrict(k, cands)
		} else {
			ids, kidOwned, err = ev.eval(k)
		}
		if err != nil {
			return nil, false, err
		}
		if limit > 0 && len(ids) > limit {
			ids = ids[:limit]
		}
		if i == 0 {
			acc, accOwned = ids, kidOwned
			continue
		}
		out := unionInto(ev.take(), acc, ids)
		ev.put(acc, accOwned)
		ev.put(ids, kidOwned)
		if limit > 0 && len(out) > limit {
			out = out[:limit]
		}
		acc, accOwned = out, true
	}
	return acc, accOwned, nil
}

// Eval answers the expression on t in its written order: the plan
// PlanExpr makes against an empty support profile, where every cost is
// 0, keeps each node's children as written (an AND's NOT children
// last), and every leaf is answered in full, none pushed down. t may be
// any Queryable. It is the unplanned baseline of BenchmarkExprPlanner;
// Index.EvalExprLimit and Store.ExecExprAppend plan against the index's
// supports.
func (e *Expr) Eval(t Queryable) ([]uint32, error) {
	p, err := PlanExpr(e, &SupportProfile{})
	if err != nil {
		return nil, err
	}
	evr := Evaluator{materialize: true}
	ids, _, err := evr.EvalLimitAppend(nil, p, t, 0)
	if err != nil {
		return nil, err
	}
	return orEmpty(ids), nil
}

// profileAt is a support profile and the generation it was made at.
type profileAt struct {
	gen  uint64
	prof *SupportProfile
}

// Supports returns the planning profile of the index's current support
// table, cached per generation: a mutation retires it, and the next
// call profiles again, under the read lock so it never observes a
// half-applied mutation. Over a sharded index no request reads it — the
// shards plan — and a remote shard contributes zeros.
func (ix *Index) Supports() *SupportProfile {
	if p := ix.prof.Load(); p != nil && p.gen == ix.gen.Load() {
		return p.prof
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	p := &profileAt{gen: ix.gen.Load(), prof: supportsOf(ix.eng)}
	ix.prof.Store(p)
	return p.prof
}

// EvalExprLimit answers a boolean expression with planned evaluation —
// cost-ordered AND children, short-circuiting, galloping set algebra —
// and returns the first n ids of its answer (see
// Evaluator.EvalLimitAppend). n == 0 means no limit; a negative n
// returns ErrNegativeLimit, as on every other entry point. It plans
// against Supports. Over a sharded index the call is a push-down, like
// a Store's: every shard plans the whole expression against its own
// supports.
func (ix *Index) EvalExprLimit(e *Expr, n int) ([]uint32, error) {
	if e == nil {
		return nil, errNilExpr
	}
	var t Queryable = ix
	if se, ok := ix.eng.(*shardedEngine); ok {
		rd, err := se.reader()
		if err != nil {
			return nil, err
		}
		t = rd
	}
	var evr Evaluator
	rq := request{e: e, limit: n}
	ids, _, err := rq.answer(context.Background(), t, ix, &evr)
	if err != nil {
		return nil, err
	}
	return orEmpty(ids), nil
}
