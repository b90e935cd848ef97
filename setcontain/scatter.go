package setcontain

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/fanout"
)

// The scatter-gather executor is the one fan-out/merge engine behind
// every sharded execution path — the Store's request core (limit
// pushdown included) and the engine-level predicate calls. It is
// transport agnostic: the per-shard callback may hit an in-process
// engine, an in-process ShardClient, or a remote HTTP shard; it only
// owns the concurrency (one goroutine per shard — shards have
// independent readers/connections, so one in-flight call per shard is
// safe), sibling cancellation on first failure, error aggregation into
// ShardError, and the order-preserving k-way merge back to global ids.

// ShardError reports which shard failed during a scatter-gather
// fan-out. errors.Is/As see through it to the underlying cause.
type ShardError struct {
	// Shard is the failing shard's index in [0, NumShards).
	Shard int
	// Err is the shard's error.
	Err error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("setcontain: shard %d: %v", e.Shard, e.Err)
}

// Unwrap exposes the shard's underlying error to errors.Is/As.
func (e *ShardError) Unwrap() error { return e.Err }

// shardCall answers one shard's part of a scatter: ascending local ids
// plus an error. ctx is canceled when a sibling shard fails first.
type shardCall func(ctx context.Context, shard int) ([]uint32, error)

// scatterGather fans call out to every shard concurrently, cancels the
// siblings as soon as one shard fails, and merges the ascending local
// answers into one ascending global-id slice through the partitioner.
// The first causal failure comes back wrapped in ShardError; if the
// caller's own ctx was canceled, that ctx error is returned unwrapped
// (the caller asked to stop — no shard is at fault).
func scatterGather(ctx context.Context, part Partitioner, call shardCall) ([]uint32, error) {
	n := part.NumShards()
	locals := make([][]uint32, n)
	errs := fanOut(ctx, n, n, func(cctx context.Context, s int) (err error) {
		locals[s], err = call(cctx, s)
		return err
	})
	if err := gatherErr(ctx, errs); err != nil {
		return nil, err
	}
	return mergeLocals(part, locals), nil
}

// fanOut runs f for every index in [0, n) on at most bound goroutines
// (see fanout.ForEach) under a context that the first failure cancels,
// and returns the per-index errors for gatherErr / firstCause to
// reduce. It is the one cancelable fan-out: scatterGather uses it with
// a goroutine per shard, Store.ExecBatch bounded by GOMAXPROCS.
func fanOut(ctx context.Context, n, bound int, f func(ctx context.Context, i int) error) []error {
	if n == 1 {
		// One task: no goroutine, no derived context, direct call.
		return []error{f(ctx, 0)}
	}
	// Always derive a cancelable context, even from context.Background:
	// the first failure must reach the siblings (a blocked remote call
	// on a healthy shard would otherwise outlive a dead one).
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	return fanout.ForEach(n, bound, func(i int) error {
		err := f(cctx, i)
		if err != nil {
			cancel()
		}
		return err
	})
}

// gatherErr reduces per-shard errors to the one the caller should see:
// the caller's own cancellation verbatim, else the first shard error
// that is not a sibling-cancellation casualty, wrapped in ShardError.
func gatherErr(ctx context.Context, errs []error) error {
	s, err := firstCause(ctx, errs)
	if s < 0 {
		return err
	}
	return &ShardError{Shard: s, Err: err}
}

// firstCause reduces the per-task errors of a fan-out whose first
// failure cancels its siblings to the one the caller should see, and
// the task it came from: (-1, nil) when every task succeeded, else
// (-1, ctx.Err()) when the caller's own ctx was canceled (the caller
// asked to stop — no task is at fault), else the first error that is
// not itself a sibling-cancellation casualty.
func firstCause(ctx context.Context, errs []error) (int, error) {
	first := -1
	for i, err := range errs {
		if err == nil {
			continue
		}
		if first < 0 {
			first = i
		}
		if !errors.Is(err, context.Canceled) {
			first = i
			break
		}
	}
	if first < 0 {
		return -1, nil
	}
	if err := ctx.Err(); err != nil {
		return -1, err
	}
	return first, errs[first]
}

// mergeLocals interleaves the shards' ascending local answers into one
// ascending global-id slice, mapping local ids to global through the
// partitioner. Each head's global id is computed once when the head
// advances (not re-derived per comparison), so the merge costs one
// GlobalOf per output id plus a k-wide scan per round.
func mergeLocals(part Partitioner, locals [][]uint32) []uint32 {
	n := len(locals)
	total := 0
	for _, l := range locals {
		total += len(l)
	}
	out := make([]uint32, 0, total)
	if total == 0 {
		return out
	}
	if n == 1 {
		for _, l := range locals[0] {
			out = append(out, part.GlobalOf(0, l))
		}
		return out
	}
	pos := make([]int, n)
	heads := make([]uint32, n) // current global id per shard; 0 = exhausted
	live := 0
	for s, l := range locals {
		if len(l) > 0 {
			heads[s] = part.GlobalOf(s, l[0])
			live++
		}
	}
	for live > 0 {
		best := -1
		var bestID uint32
		for s, id := range heads {
			if id == 0 {
				continue
			}
			if best < 0 || id < bestID {
				best, bestID = s, id
			}
		}
		out = append(out, bestID)
		pos[best]++
		if pos[best] < len(locals[best]) {
			heads[best] = part.GlobalOf(best, locals[best][pos[best]])
		} else {
			heads[best] = 0
			live--
		}
	}
	return out
}
