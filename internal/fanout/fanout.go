// Package fanout holds the one bounded fan-out loop of the repository:
// the parallel shard builds, merges and snapshot codecs of setcontain,
// its cancelable query fan-out, and the parallel set-up phases of
// internal/dataset, internal/sequence and internal/core all run their
// tasks through ForEach.
package fanout

import (
	"runtime"
	"sync"
)

// ForEach runs f for every index in [0, n), on at most bound goroutines
// at once (bound <= 0 selects GOMAXPROCS), and returns the per-index
// errors once every call has returned. With one task, or a bound of
// one, the calls run in index order on the caller's goroutine.
func ForEach(n, bound int, f func(i int) error) []error {
	if bound <= 0 {
		bound = runtime.GOMAXPROCS(0)
	}
	bound = min(bound, n)
	errs := make([]error, n)
	if bound <= 1 {
		for i := range errs {
			errs[i] = f(i)
		}
		return errs
	}
	sem := make(chan struct{}, bound)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	return errs
}

// First returns the error of the lowest index that failed, or nil. A
// caller that splits one serial loop into ordered ranges gets, through
// it, the error the serial loop would have met first.
func First(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
