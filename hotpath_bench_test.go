package repro

// CPU hot-path benchmarks. Unlike the paper protocol of
// internal/experiments — which drops the cache to count disk page
// accesses — these run with a buffer pool large enough to hold the whole
// index, so after a warm-up pass every page request is a hit and the
// numbers isolate pure CPU cost: vbyte decoding, B-tree cursor walks, and
// candidate merging. They are what a developer points pprof at, not a
// gate: timing is judged by benchmark/ (docs/BENCHMARKS.md) and
// allocations by TestStoreExecAppendZeroAllocs and TestExprAllocCeilings.
// allocs/op comes from -benchmem or b.ReportAllocs.

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/workload"
	"repro/setcontain"
)

// benchCfg is the shared scale for the root benches: big enough for
// multi-page lists, small enough for quick runs.
func benchCfg() experiments.Config {
	cfg := experiments.DefaultConfig(io.Discard)
	cfg.Scale = 0.005 // default synthetic |D| = 50 000 records
	cfg.RealScale = 0.05
	cfg.QueriesPerSize = 10
	return cfg
}

// hotPoolPages comfortably exceeds the ~0.5 MB index the default-scale
// synthetic dataset builds, so steady-state queries never touch the pager.
const hotPoolPages = 4096

func hotFixture(b *testing.B, kind workload.Kind, size int, opts ...setcontain.Option) (*setcontain.Index, []workload.Query) {
	b.Helper()
	cfg := benchCfg()
	d, err := dataset.GenerateSynthetic(cfg.SyntheticDefaults())
	if err != nil {
		b.Fatal(err)
	}
	all := append([]setcontain.Option{
		setcontain.WithKind(setcontain.OIF),
		setcontain.WithCachePages(hotPoolPages),
	}, opts...)
	idx, err := setcontain.New(setcontain.WrapDataset(d), all...)
	if err != nil {
		b.Fatal(err)
	}
	queries := workload.NewGenerator(d, 42).Queries(kind, size, 64)
	if len(queries) == 0 {
		b.Skip("no queries available at this scale")
	}
	return idx, queries
}

func runHotQuery(idx *setcontain.Index, dst []uint32, q workload.Query) ([]uint32, error) {
	switch q.Kind {
	case workload.Subset:
		return setcontain.SubsetQuery(q.Items).EvalAppend(dst, idx)
	case workload.Equality:
		return setcontain.EqualityQuery(q.Items).EvalAppend(dst, idx)
	default:
		return setcontain.SupersetQuery(q.Items).EvalAppend(dst, idx)
	}
}

func benchHotPath(b *testing.B, kind workload.Kind, size int, opts ...setcontain.Option) {
	idx, queries := hotFixture(b, kind, size, opts...)
	// Warm-up: one full pass loads every touched page and grows the
	// answer buffer to its high-water mark, so the timed region measures
	// steady state.
	var dst []uint32
	var err error
	for _, q := range queries {
		if dst, err = runHotQuery(idx, dst[:0], q); err != nil {
			b.Fatal(err)
		}
	}
	before := idx.CacheStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, err = runHotQuery(idx, dst[:0], queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := idx.CacheStats()
	b.ReportMetric(float64(st.PageReads-before.PageReads)/float64(b.N), "pages/op")
}

// BenchmarkSubset is the tier-1 hot-path benchmark for subset queries on
// the skewed synthetic workload at default scale.
func BenchmarkSubset(b *testing.B) {
	for _, size := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("qs%02d", size), func(b *testing.B) {
			benchHotPath(b, workload.Subset, size)
		})
	}
}

// BenchmarkEquality is the warm-cache equality companion.
func BenchmarkEquality(b *testing.B) {
	for _, size := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("qs%02d", size), func(b *testing.B) {
			benchHotPath(b, workload.Equality, size)
		})
	}
}

// BenchmarkSuperset is the tier-1 hot-path benchmark for superset queries
// on the skewed synthetic workload at default scale.
func BenchmarkSuperset(b *testing.B) {
	for _, size := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("qs%02d", size), func(b *testing.B) {
			benchHotPath(b, workload.Superset, size)
		})
	}
}
