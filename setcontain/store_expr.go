package setcontain

import (
	"context"
	"sync"
	"sync/atomic"
)

// What the Store's request core (store.go) plans against and reports
// to: the support profile cached per store generation, the cumulative
// planner counters, and the router branch that sends a request to
// every shard in parallel and merges the per-shard answers with the
// partitioner's k-way interleave.

// exprState is the Store's expression-planning state: the support
// profile cache, keyed by store generation so mutations invalidate it
// through the same Refresh that retires pooled readers, plus the
// cumulative planner counters.
type exprState struct {
	mu   sync.Mutex
	gen  uint64
	prof *SupportProfile

	expressions     atomic.Int64
	evaluatedLeaves atomic.Int64
	streamedLeaves  atomic.Int64
	skippedLeaves   atomic.Int64
	cseHits         atomic.Int64
	cseMisses       atomic.Int64
	cseSavedLeaves  atomic.Int64
}

// Supports returns the store's cached support profile, recomputing it
// when a Refresh has retired the previous one. The profile snapshots
// the merged structures under the store's mutation lock, so it never
// observes a half-applied update. Over a sharded index no request reads
// it — the shards plan — and a remote shard contributes zeros.
func (s *Store) Supports() *SupportProfile {
	gen := s.gen.Load()
	s.expr.mu.Lock()
	defer s.expr.mu.Unlock()
	if s.expr.prof == nil || s.expr.gen != gen {
		s.mu.RLock()
		prof := SupportsOf(s.ix.Engine())
		s.mu.RUnlock()
		s.expr.prof, s.expr.gen = prof, gen
	}
	return s.expr.prof
}

// ExprStats is the Store's cumulative planner accounting: expressions
// executed through the planned path, containment leaves actually
// evaluated (and how many of those streamed instead of materializing),
// leaves the empty-intermediate short-circuit skipped, and the batch
// subexpression cache's hit/miss/saved-leaf counters. Requests that are
// one plain leaf with no limit skip the planner and are not counted
// here, whichever entry point they arrive through.
type ExprStats struct {
	Expressions     int64
	EvaluatedLeaves int64
	StreamedLeaves  int64
	SkippedLeaves   int64
	CSEHits         int64
	CSEMisses       int64
	CSESavedLeaves  int64
}

// ExprStats returns the cumulative planned-evaluation counters.
func (s *Store) ExprStats() ExprStats {
	return ExprStats{
		Expressions:     s.expr.expressions.Load(),
		EvaluatedLeaves: s.expr.evaluatedLeaves.Load(),
		StreamedLeaves:  s.expr.streamedLeaves.Load(),
		SkippedLeaves:   s.expr.skippedLeaves.Load(),
		CSEHits:         s.expr.cseHits.Load(),
		CSEMisses:       s.expr.cseMisses.Load(),
		CSESavedLeaves:  s.expr.cseSavedLeaves.Load(),
	}
}

func (s *Store) noteExprEval(st ExprEvalStats) {
	s.expr.expressions.Add(1)
	s.expr.evaluatedLeaves.Add(int64(st.EvaluatedLeaves))
	s.expr.streamedLeaves.Add(int64(st.StreamedLeaves))
	s.expr.skippedLeaves.Add(int64(st.SkippedLeaves))
}

func (s *Store) noteCSE(c *cseState) {
	if c == nil {
		return
	}
	s.expr.cseHits.Add(int64(c.hits))
	s.expr.cseMisses.Add(int64(c.misses))
	s.expr.cseSavedLeaves.Add(int64(c.savedLeaves))
}

// execSharded answers one validated item on every shard through the
// scatter-gather executor and k-way merges the local answers into
// global id order: a plain leaf as the sessions' AppendQuery, anything
// else as their AppendExpr. The boolean algebra distributes over the
// partition — the shards hold disjoint record sets, so each shard's
// local answer (its NOT universe included) is exactly the global answer
// restricted to that shard — which keeps sharded expression answers
// byte-identical to single-engine ones while every shard plans against
// its own supports, short-circuits, and combines independently.
//
// One cancellation signal crosses the shard seam: a ctx that ends when
// the item's or the batch's does; a failure reports the one that did.
//
// A tree answered counts in ExprStats as one expression, with the leaf
// counters of the sessions that can report them (in-process ones)
// summed across the shards that did the work.
func (s *Store) execSharded(batch context.Context, it *BatchItem, sr *shardedReader) (ids []uint32, err error) {
	ctx := batch
	if it.Ctx != nil {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(it.Ctx)
		defer cancel()
		defer context.AfterFunc(batch, cancel)()
	}
	q, leaf := it.asLeaf()
	if leaf {
		ids, err = sr.scatterQuery(ctx, q)
	} else {
		ids, err = sr.scatterExpr(ctx, it.expr(), it.Limit)
	}
	if err != nil {
		if berr := batch.Err(); berr != nil {
			return nil, berr // the derived ctx says only "canceled"
		}
		return nil, err
	}
	if !leaf {
		var total ExprEvalStats
		for _, sess := range sr.sess {
			if is, ok := sess.(*inprocSession); ok {
				total.EvaluatedLeaves += is.last.EvaluatedLeaves
				total.StreamedLeaves += is.last.StreamedLeaves
				total.SkippedLeaves += is.last.SkippedLeaves
			}
		}
		s.noteExprEval(total)
	}
	return appendFresh(it.Dst, ids), nil
}
