package setcontain

// The streaming execution tier under ExprPlan. Once an AND node holds a
// non-empty intermediate, a later subset leaf is answered *within* that
// candidate set (subsetWithiner) — the OIF validates Theorem 1's
// discard rule per candidate instead of building the leaf's full answer
// and intersecting. The answers are byte-identical to the materializing
// evaluator's. A limit truncates the one evaluation (see
// EvalLimitAppend).

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
// the root merges only the first `limit` ids of each leg, since the
// first n ids of a union lie in the union of each leg's first n.
func (evr *Evaluator) EvalLimitAppend(dst []uint32, p *ExprPlan, t Queryable, limit int) ([]uint32, ExprEvalStats, error) {
	ev := evr.newEval(t)
	var (
		ids   []uint32
		owned bool
		err   error
	)
	if limit > 0 && p.Root.Op == OpOr {
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
		// one next time). An un-owned result — the universe — is shared
		// and always copied.
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
