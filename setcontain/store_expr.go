package setcontain

import "sync/atomic"

// exprState holds the cumulative planner counters the Store's request
// core (store.go) reports to.
type exprState struct {
	expressions     atomic.Int64
	evaluatedLeaves atomic.Int64
	streamedLeaves  atomic.Int64
	skippedLeaves   atomic.Int64
}

// Supports returns the index's planning profile (Index.Supports).
func (s *Store) Supports() *SupportProfile { return s.ix.Supports() }

// ExprStats is the Store's cumulative planner accounting: expressions
// executed through the planned path, containment leaves actually
// evaluated (and how many of those streamed instead of materializing),
// and leaves the empty-intermediate short-circuit skipped. Requests
// that are one plain leaf with no limit skip the planner and are not
// counted here, whichever entry point they arrive through.
type ExprStats struct {
	Expressions     int64
	EvaluatedLeaves int64
	StreamedLeaves  int64
	SkippedLeaves   int64
	// CSEHits, CSEMisses and CSESavedLeaves are always zero: every
	// request is evaluated on its own, and no subtree is shared across
	// requests.
	//
	// Deprecated: kept only because the frozen benchmark harness reads
	// them.
	CSEHits, CSEMisses, CSESavedLeaves int64
}

// ExprStats returns the cumulative planned-evaluation counters.
func (s *Store) ExprStats() ExprStats {
	return ExprStats{
		Expressions:     s.expr.expressions.Load(),
		EvaluatedLeaves: s.expr.evaluatedLeaves.Load(),
		StreamedLeaves:  s.expr.streamedLeaves.Load(),
		SkippedLeaves:   s.expr.skippedLeaves.Load(),
	}
}

func (s *Store) noteExprEval(st ExprEvalStats) {
	s.expr.expressions.Add(1)
	s.expr.evaluatedLeaves.Add(int64(st.EvaluatedLeaves))
	s.expr.streamedLeaves.Add(int64(st.StreamedLeaves))
	s.expr.skippedLeaves.Add(int64(st.SkippedLeaves))
}
