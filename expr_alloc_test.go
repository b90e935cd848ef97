//go:build !race

package repro

// Allocation ceilings on the warm expression paths, over the same
// fixtures as the micro-benchmarks beside this file. allocs/op is the
// one signal of theirs that no benchmark/ workload carries, so it is a
// test. Built only without -race: the detector's instrumentation
// allocates. Every ceiling is zero but ExprPlanner/planned's, whose ops
// each start on a fresh Evaluator.

import (
	"testing"

	"repro/setcontain"
)

func TestExprAllocCeilings(t *testing.T) {
	// Each case returns its number of distinct ops and a function that
	// runs op i on warm, reused buffers.
	cases := []struct {
		name    string
		ceiling float64
		setup   func(t *testing.T) (int, func(i int) error)
	}{
		{"ExprStream/streaming", 0, func(t *testing.T) (int, func(int) error) {
			idx, plans := exprStreamFixture(t)
			var ev setcontain.Evaluator
			dst := make([]uint32, 0, 4096)
			return len(plans), func(i int) (err error) {
				dst, _, err = ev.EvalLimitAppend(dst[:0], plans[i], idx, 0)
				return err
			}
		}},
		{"ExprStream/andnot", 0, func(t *testing.T) (int, func(int) error) {
			idx, plans := exprAndNotFixture(t)
			var ev setcontain.Evaluator
			dst := make([]uint32, 0, 4096)
			return len(plans), func(i int) (err error) {
				dst, _, err = ev.EvalLimitAppend(dst[:0], plans[i], idx, 0)
				return err
			}
		}},
		{"ExprPlanner/planned", 1, func(t *testing.T) (int, func(int) error) {
			idx, _, plans := exprBenchFixture(t)
			dst := make([]uint32, 0, 1024)
			return len(plans), func(i int) (err error) {
				var ev setcontain.Evaluator // cold: a fresh free list per op
				dst, _, err = ev.EvalLimitAppend(dst[:0], plans[i], idx, 0)
				return err
			}
		}},
		{"ExprLimit/limit10", 0, func(t *testing.T) (int, func(int) error) {
			idx, plans := exprLimitFixture(t)
			var ev setcontain.Evaluator
			dst := make([]uint32, 0, 4096)
			return len(plans), func(i int) (err error) {
				dst, _, err = ev.EvalLimitAppend(dst[:0], plans[i], idx, 10)
				return err
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n, op := c.setup(t)
			i := 0
			next := func() {
				if err := op(i % n); err != nil {
					t.Fatal(err)
				}
				i++
			}
			// Warm: two passes bring the page cache, the evaluator's free
			// list and the answer buffers to their high-water marks.
			for i < 2*n {
				next()
			}
			// 128 runs: two passes of the 64-op workloads.
			allocs := testing.AllocsPerRun(128, next)
			t.Logf("%.0f allocs per warm op, ceiling %.0f", allocs, c.ceiling)
			if allocs > c.ceiling {
				t.Error("over the ceiling (it is a ratchet: lowering it is welcome, raising it needs a reason)")
			}
		})
	}
}
