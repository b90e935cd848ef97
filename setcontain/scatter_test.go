package setcontain

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// checkGoroutines fails the test if the goroutine count has not settled
// back to base within a grace period — the leak detector behind the
// abandonment tests.
func checkGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d, started with %d\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMergeLocalsEdges: the eager k-way interleave must reproduce the
// globally sorted id sequence from partitioned locals in every
// degenerate shape — all shards empty, one live shard, one shard, and
// random splits.
func TestMergeLocalsEdges(t *testing.T) {
	part3 := NewRoundRobinPartitioner(3)
	if got := mergeLocals(part3, [][]uint32{nil, nil, nil}); len(got) != 0 {
		t.Fatalf("all-empty shards merged to %v", got)
	}
	if got := mergeLocals(part3, [][]uint32{nil, {1, 2}, nil}); !slices.Equal(got, []uint32{2, 5}) {
		t.Fatalf("single live shard merged to %v, want [2 5]", got)
	}
	if got := mergeLocals(NewRoundRobinPartitioner(1), [][]uint32{{1, 3, 9}}); !slices.Equal(got, []uint32{1, 3, 9}) {
		t.Fatalf("one-shard fast path merged to %v", got)
	}

	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		part := NewRoundRobinPartitioner(n)
		total := rng.Intn(200)
		// Route a random subset of globals 1..total through the
		// partitioner, exactly as a per-shard answer set would be.
		var want []uint32
		locals := make([][]uint32, n)
		for g := uint32(1); g <= uint32(total); g++ {
			if rng.Intn(3) == 0 {
				continue
			}
			s, local := part.Locate(g)
			locals[s] = append(locals[s], local)
			want = append(want, g)
		}
		if got := mergeLocals(part, locals); !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d): merged %v, want %v", trial, n, got, want)
		}
	}
}

// TestScatterErrorAggregation: a failing shard surfaces as a ShardError
// naming it, sibling cancellation casualties never mask the root cause,
// and the caller's own cancellation comes back unwrapped.
func TestScatterErrorAggregation(t *testing.T) {
	base := runtime.NumGoroutine()
	part := NewRoundRobinPartitioner(4)
	boom := errors.New("boom")

	// Shard 2 fails; the siblings observe the cancellation and bail with
	// ctx.Err(), which must not be reported as the failure.
	_, err := scatterGather(context.Background(), part, func(ctx context.Context, shard int) ([]uint32, error) {
		if shard == 2 {
			return nil, boom
		}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	var se *ShardError
	if !errors.As(err, &se) || se.Shard != 2 || !errors.Is(err, boom) {
		t.Fatalf("got %v, want ShardError{Shard: 2, Err: boom}", err)
	}

	// The caller canceled: its own ctx error, no shard blamed.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = scatterGather(ctx, part, func(ctx context.Context, shard int) ([]uint32, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) || errors.As(err, &se) {
		t.Fatalf("caller cancel: got %v, want bare context.Canceled", err)
	}

	// Same for the single-shard fast path.
	_, err = scatterGather(context.Background(), NewRoundRobinPartitioner(1),
		func(context.Context, int) ([]uint32, error) { return nil, boom })
	if !errors.As(err, &se) || se.Shard != 0 || !errors.Is(err, boom) {
		t.Fatalf("one shard: got %v, want ShardError{Shard: 0, Err: boom}", err)
	}
	checkGoroutines(t, base)
}

// TestScatterSiblingCancellation: the first failure must actually reach
// the siblings' contexts — the property the partial-failure path (one
// dead remote shard) depends on to avoid hanging on the healthy ones.
func TestScatterSiblingCancellation(t *testing.T) {
	base := runtime.NumGoroutine()
	part := NewRoundRobinPartitioner(3)
	var canceled atomic.Int32
	_, err := scatterGather(context.Background(), part, func(ctx context.Context, shard int) ([]uint32, error) {
		if shard == 0 {
			return nil, errors.New("shard down")
		}
		select {
		case <-ctx.Done():
			canceled.Add(1)
			return nil, ctx.Err()
		case <-time.After(5 * time.Second):
			return nil, errors.New("sibling never canceled")
		}
	})
	var se *ShardError
	if !errors.As(err, &se) || se.Shard != 0 {
		t.Fatalf("got %v, want ShardError naming shard 0", err)
	}
	if canceled.Load() != 2 {
		t.Fatalf("%d siblings saw the cancellation, want 2", canceled.Load())
	}
	checkGoroutines(t, base)
}

// TestScatterGatherMergesThroughPartitioner: answers fan back in through
// the partitioner's global mapping, whatever the scheme.
func TestScatterGatherMergesThroughPartitioner(t *testing.T) {
	for _, part := range []Partitioner{NewRoundRobinPartitioner(3), reversedRobin{n: 3}} {
		want := make([]uint32, 0, 30)
		for g := uint32(1); g <= 30; g++ {
			want = append(want, g)
		}
		got, err := scatterGather(context.Background(), part, func(_ context.Context, shard int) ([]uint32, error) {
			var locals []uint32
			for g := uint32(1); g <= 30; g++ {
				if s, local := part.Locate(g); s == shard {
					locals = append(locals, local)
				}
			}
			return locals, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%T: merged %v, want 1..30", part, got)
		}
	}
}
