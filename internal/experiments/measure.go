package experiments

import (
	"fmt"
	"time"

	"repro/internal/storage"
	"repro/internal/workload"
	"repro/setcontain"
)

// Meter re-points an index at a fresh minimal buffer pool over its
// existing pager, making it measurable under the paper's cache budget.
func Meter(ix ContainmentIndex, poolPages int) (*storage.BufferPool, error) {
	pool := storage.NewBufferPool(ix.Pool().Pager(), poolPages)
	if err := ix.SetPool(pool); err != nil {
		return nil, err
	}
	return pool, nil
}

// AsQuery converts a generated workload query to the public first-class
// form, ready for Query.Eval or Store.Exec: the bridge for measurement
// code on the public API. The experiments themselves use runQuery.
func AsQuery(q workload.Query) (setcontain.Query, error) {
	var pred setcontain.Predicate
	switch q.Kind {
	case workload.Subset:
		pred = setcontain.PredicateSubset
	case workload.Equality:
		pred = setcontain.PredicateEquality
	case workload.Superset:
		pred = setcontain.PredicateSuperset
	default:
		return setcontain.Query{}, fmt.Errorf("experiments: unknown query kind %v", q.Kind)
	}
	return setcontain.Query{Pred: pred, Items: q.Items}, nil
}

// runQuery dispatches one workload query to the index's predicate.
func runQuery(ix ContainmentIndex, q workload.Query) ([]uint32, error) {
	switch q.Kind {
	case workload.Subset:
		return ix.Subset(q.Items)
	case workload.Equality:
		return ix.Equality(q.Items)
	case workload.Superset:
		return ix.Superset(q.Items)
	}
	return nil, fmt.Errorf("experiments: unknown query kind %v", q.Kind)
}

// MeasureWorkload runs every query against ix and returns per-query
// averages. The index must already be metered. Following the paper's
// protocol the minimal cache starts cold for the workload but persists
// across its queries — §5 runs the 10 queries of each size sequentially
// against the live 32 KB Berkeley DB cache.
func MeasureWorkload(ix ContainmentIndex, queries []workload.Query, disk storage.DiskModel) (Metrics, error) {
	var m Metrics
	pool := ix.Pool()
	if err := pool.DropAll(); err != nil {
		return Metrics{}, err
	}
	for _, q := range queries {
		pool.ResetStats()
		start := time.Now()
		res, err := runQuery(ix, q)
		if err != nil {
			return Metrics{}, fmt.Errorf("experiments: %v query %v: %w", q.Kind, q.Items, err)
		}
		cpu := time.Since(start)
		st := pool.Stats()
		m.Queries++
		m.Pages += float64(st.Misses)
		m.SeqPages += float64(st.SeqMisses)
		m.RandPages += float64(st.RandMisses)
		m.CPU += cpu
		m.IO += disk.Time(st)
		m.Answers += float64(len(res))
	}
	if m.Queries > 0 {
		n := int64(m.Queries)
		m.Pages /= float64(n)
		m.SeqPages /= float64(n)
		m.RandPages /= float64(n)
		m.CPU /= time.Duration(n)
		m.IO /= time.Duration(n)
		m.Answers /= float64(n)
	}
	return m, nil
}

// MeasureSystems measures the same workload across several systems,
// returning one labelled entry per system. Every system must return as
// many answers as the first: the same queries summed in the same order
// give exactly equal averages, so any difference is a wrong answer.
func MeasureSystems(systems []SystemIndex, queries []workload.Query, disk storage.DiskModel) ([]SystemMetrics, error) {
	out := make([]SystemMetrics, 0, len(systems))
	for _, s := range systems {
		m, err := MeasureWorkload(s.Index, queries, disk)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
		if len(out) > 0 && m.Answers != out[0].M.Answers {
			return nil, fmt.Errorf("experiments: %s and %s disagree: %v vs %v answers per query",
				out[0].Name, s.Name, out[0].M.Answers, m.Answers)
		}
		out = append(out, SystemMetrics{Name: s.Name, M: m})
	}
	return out, nil
}

// SystemIndex pairs an index with its display name.
type SystemIndex struct {
	Name  string
	Index ContainmentIndex
}
