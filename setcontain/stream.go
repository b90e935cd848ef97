package setcontain

import "strings"

// The streaming execution tier under ExprPlan. Two mechanisms let a
// planned evaluation touch less of the index than full per-leaf
// materialization:
//
//   - Streaming AND pushdown: once an AND node holds a non-empty
//     intermediate, a later subset leaf is answered *within* that
//     candidate set (subsetWithiner) — the OIF validates Theorem 1's
//     discard rule per candidate instead of building the leaf's full
//     answer and intersecting.
//   - Cross-query subexpression caching: Store.ExecBatchAppend
//     canonicalizes plan subtrees across one micro-batch and evaluates
//     each distinct shared subtree once (cseState).
//
// Nodes whose results feed more than one consumer — shared CSE
// subtrees — fall back to materialization, which is what makes the
// streaming answers byte-identical to the materializing evaluator. A
// limit truncates the one evaluation (see run).

// Evaluator carries the reusable state of planned evaluations: the free
// list recycling intermediate buffers across calls. The zero value is
// ready to use and streams — candidate pushdown into subset leaves
// under AND wherever the target offers it; a long-lived Evaluator
// reaching steady state evaluates expressions with zero heap
// allocations on an append-capable target. An Evaluator is not safe for
// concurrent use — pool them like readers (Store does).
type Evaluator struct {
	free [][]uint32

	// materialize forces full leaf materialization: the reference the
	// tests hold the streaming answers byte-identical to, and the
	// baseline BenchmarkExprStream measures against. Nothing outside the
	// package's tests sets it.
	materialize bool
}

// EvalLimitAppend answers the planned expression against t, appending
// the answer — its first `limit` ids when limit > 0, all of it when
// limit <= 0 — to dst (dst itself when nothing matched): ascending
// unique record ids, byte-identical to the naive Expr.Eval reference,
// just computed in cost order with short-circuiting and streaming.
// Intermediates recycle through the evaluator's free list, which
// persists across calls — the reuse that makes steady-state evaluation
// allocation-free on an append-capable target.
//
// A limit evaluates the plan once, as without one, and keeps the first
// `limit` ids. Every leaf is answered in full — the inverted file reads
// and decodes each involved list whole, limited or not — but an OR at
// the root merges only the first `limit` ids of each leg.
func (evr *Evaluator) EvalLimitAppend(dst []uint32, p *ExprPlan, t Queryable, limit int) ([]uint32, ExprEvalStats, error) {
	return evr.run(dst, p, t, nil, limit)
}

// run is the one evaluation behind every entry point: the plan against
// t, cut to its first limit ids when limit > 0, appended to dst (dst
// itself when nothing matched), sharing the subtrees a batch's cse
// marks. An unshared root OR cuts each leg to limit before merging it,
// since the first n ids of a union lie in the union of each leg's first
// n; a shared root is evaluated whole, because its answer is cached for
// batchmates that read all of it.
func (evr *Evaluator) run(dst []uint32, p *ExprPlan, t Queryable, cse *cseState, limit int) ([]uint32, ExprEvalStats, error) {
	ev := evr.newEval(t)
	ev.cse = cse
	var (
		ids   []uint32
		owned bool
		err   error
	)
	if limit > 0 && p.Root.Op == OpOr && !ev.cseShared(p.Root) {
		ids, owned, err = ev.union(p.Root.Kids, limit)
	} else {
		ids, owned, err = ev.eval(p.Root)
	}
	if err != nil {
		return nil, ev.stats, err
	}
	if limit > 0 && len(ids) > limit {
		ids = ids[:limit]
	}
	if cap(dst) == 0 && owned && len(ids) > 0 {
		// No backing array to preserve: hand the result buffer out
		// directly (it leaves the free list, which simply grows a fresh
		// one next time). Un-owned results — the universe, a batch's
		// cached subtree — are shared and always copied.
		return ids, ev.stats, nil
	}
	out := append(dst, ids...)
	ev.put(ids, owned)
	return out, ev.stats, nil
}

// newEval starts one evaluation against t, unwrapped once to its
// backend, discovering the backend's candidate pushdown unless the
// evaluator is the materializing reference.
func (evr *Evaluator) newEval(t Queryable) exprEval {
	ev := exprEval{t: backendOf(t), owner: evr}
	if !evr.materialize {
		ev.within, _ = ev.t.(subsetWithiner)
	}
	return ev
}

// --- streaming capability -----------------------------------------------

// subsetWithiner is the candidate-pushdown capability: the subset
// answer restricted to a sorted unique candidate id set, computed in
// one pass without materializing the full leaf answer. The OIF backend
// implements it — Theorem 1's discard rule is valid for arbitrary
// candidate ids (see core.Index.AppendSubsetWithin).
type subsetWithiner interface {
	AppendSubsetWithin(dst []uint32, qs []Item, cands []uint32) ([]uint32, error)
}

// --- cross-query subexpression cache ------------------------------------

// cseState is one micro-batch's common-subexpression cache: plan nodes
// whose canonical form occurs at least twice across the batch map to a
// key, and the first evaluation of each key materializes into cache for
// every later occurrence to reuse. Cached slices are returned un-owned,
// so they are never recycled or mutated while the batch runs.
type cseState struct {
	keys  map[*PlanNode]string
	cache map[string][]uint32

	hits, misses, savedLeaves int
}

// cseShared reports whether n's result is shared across the batch —
// such nodes must materialize (their cached answer feeds several
// consumers), never stream.
func (ev *exprEval) cseShared(n *PlanNode) bool {
	if ev.cse == nil {
		return false
	}
	_, ok := ev.cse.keys[n]
	return ok
}

// planCanon writes n's canonical form: the minimal textual rendering of
// the *planned* tree. Because the planner orders children with a stable
// cost sort against one shared profile, structurally equal expression
// subtrees across a batch produce identical canonical strings.
func planCanon(n *PlanNode, b *strings.Builder) {
	if n.Op == OpLeaf {
		b.WriteString(n.Leaf.String())
		return
	}
	b.WriteString(n.Op.String())
	b.WriteByte('(')
	for i, k := range n.Kids {
		if i > 0 {
			b.WriteByte(',')
		}
		planCanon(k, b)
	}
	b.WriteByte(')')
}

// collectCSE scans the batch's planned items and returns the
// shared-subtree cache, or nil when no subtree repeats (the common case
// costs one tree walk and no per-node overhead during evaluation).
func collectCSE(items []BatchItem) *cseState {
	count := make(map[string]int)
	keyOf := make(map[*PlanNode]string)
	var walk func(n *PlanNode)
	walk = func(n *PlanNode) {
		var b strings.Builder
		planCanon(n, &b)
		key := b.String()
		keyOf[n] = key
		count[key]++
		for _, k := range n.Kids {
			walk(k)
		}
	}
	for i := range items {
		if p := items[i].plan; p != nil {
			walk(p.Root)
		}
	}
	shared := make(map[*PlanNode]string)
	for n, key := range keyOf {
		if count[key] >= 2 {
			shared[n] = key
		}
	}
	if len(shared) == 0 {
		return nil
	}
	return &cseState{keys: shared, cache: make(map[string][]uint32)}
}
