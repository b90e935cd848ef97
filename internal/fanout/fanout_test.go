package fanout

import (
	"errors"
	"sync/atomic"
	"testing"
)

// TestForEach runs every index once, keeps each index's error in its
// slot, and never has more than bound calls in flight; with a bound of
// one the calls run in index order.
func TestForEach(t *testing.T) {
	for _, bound := range []int{0, 1, 2, 3, 16} {
		const n = 40
		var inFlight, peak atomic.Int32
		var order []int
		errs := ForEach(n, bound, func(i int) error {
			now := inFlight.Add(1)
			defer inFlight.Add(-1)
			for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
			}
			if bound == 1 {
				order = append(order, i)
			}
			if i%7 == 3 {
				return errors.New("odd one")
			}
			return nil
		})
		if len(errs) != n {
			t.Fatalf("bound %d: %d errors for %d tasks", bound, len(errs), n)
		}
		for i, err := range errs {
			if (err != nil) != (i%7 == 3) {
				t.Fatalf("bound %d: task %d error %v", bound, i, err)
			}
		}
		if bound > 0 && int(peak.Load()) > bound {
			t.Errorf("bound %d: %d calls in flight", bound, peak.Load())
		}
		if bound == 1 {
			for i, got := range order {
				if got != i {
					t.Fatalf("bound 1: call %d ran task %d", i, got)
				}
			}
		}
		if err := First(errs); err == nil || err != errs[3] {
			t.Errorf("bound %d: First = %v, want task 3's error", bound, err)
		}
	}
	if First(ForEach(0, 2, func(int) error { return errors.New("never") })) != nil {
		t.Error("no tasks: First reported an error")
	}
}
