package setcontain

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// storeWorkload draws a deterministic mixed workload over the sample
// collection's domain.
func storeWorkload(n int, seed int64) []Query {
	rng := rand.New(rand.NewSource(seed))
	preds := []Predicate{PredicateSubset, PredicateEquality, PredicateSuperset}
	qs := make([]Query, n)
	for i := range qs {
		k := 1 + rng.Intn(5)
		items := make([]Item, k)
		for j := range items {
			items[j] = Item(rng.Intn(40))
		}
		qs[i] = Query{Pred: preds[rng.Intn(len(preds))], Items: items}
	}
	return qs
}

// TestStoreExecParallel runs concurrent Store.Exec across goroutines for
// every engine kind and asserts each answer matches the sequential one.
// Run under -race this also proves the pooled readers are isolated.
func TestStoreExecParallel(t *testing.T) {
	c := sampleCollection(t)
	queries := storeWorkload(60, 81)
	for kind, ix := range buildAll(t, c) {
		t.Run(kind.String(), func(t *testing.T) {
			want := make([][]uint32, len(queries))
			for i, q := range queries {
				ids, err := ix.Eval(q)
				if err != nil {
					t.Fatalf("sequential %s: %v", q, err)
				}
				want[i] = ids
			}

			store := NewStore(ix, 4)
			ctx := context.Background()
			const goroutines = 8
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					// Each goroutine walks the whole workload from its own
					// offset, so every query runs on several readers.
					for n := 0; n < len(queries); n++ {
						i := (g*7 + n) % len(queries)
						got, err := store.Exec(ctx, queries[i])
						if err != nil {
							errs <- fmt.Errorf("parallel %s: %v", queries[i], err)
							return
						}
						if !reflect.DeepEqual(got, want[i]) && !(len(got) == 0 && len(want[i]) == 0) {
							errs <- fmt.Errorf("parallel %s: got %v want %v", queries[i], got, want[i])
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestStoreExecBatch checks batch answers arrive in order and match the
// sequential evaluation, for every engine kind.
func TestStoreExecBatch(t *testing.T) {
	c := sampleCollection(t)
	queries := storeWorkload(40, 82)
	for kind, ix := range buildAll(t, c) {
		t.Run(kind.String(), func(t *testing.T) {
			store := NewStore(ix, 4)
			got, err := store.ExecBatch(context.Background(), queries)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(queries) {
				t.Fatalf("got %d answers for %d queries", len(got), len(queries))
			}
			for i, q := range queries {
				want, err := ix.Eval(q)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got[i], want) && !(len(got[i]) == 0 && len(want) == 0) {
					t.Errorf("%s: got %v want %v", q, got[i], want)
				}
			}
		})
	}
}

// TestStoreExecCancelled checks an already-cancelled context aborts
// Exec, ExecBatch and ExecExprAppend with context.Canceled — at one,
// two and four Ps, because ExecBatch's fan-out width follows GOMAXPROCS
// and a single-core run once hid a silently empty answer.
func TestStoreExecCancelled(t *testing.T) {
	c := sampleCollection(t)
	ix, err := New(c, WithPageSize(512), WithBlockPostings(8))
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore(ix, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
			if _, err := store.Exec(ctx, SubsetQuery([]Item{1})); !errors.Is(err, context.Canceled) {
				t.Errorf("Exec on cancelled ctx: got %v, want context.Canceled", err)
			}
			if out, err := store.ExecBatch(ctx, storeWorkload(10, 83)); !errors.Is(err, context.Canceled) || out != nil {
				t.Errorf("ExecBatch on cancelled ctx: got %v, %v, want nil, context.Canceled", out, err)
			}
			tree := And(ExprOf(SubsetQuery([]Item{1})), ExprOf(SubsetQuery([]Item{2})))
			if out, err := store.ExecExprAppend(ctx, nil, tree); !errors.Is(err, context.Canceled) || out != nil {
				t.Errorf("ExecExprAppend on cancelled ctx: got %v, %v, want nil, context.Canceled", out, err)
			}
		})
	}
}

// TestStoreEmptyAnswerShape pins the one empty-answer rule across every
// kind and entry point: the plain forms (Exec, ExecBatch) return a
// non-nil empty slice, the append forms return dst itself — nil stays
// nil, a caller's buffer comes back as it went in.
func TestStoreEmptyAnswerShape(t *testing.T) {
	c := sampleCollection(t)
	// No record holds all 40 items, so nothing matches any of these.
	all := make([]Item, 40)
	for i := range all {
		all[i] = Item(i)
	}
	leaf := SubsetQuery(all)
	tree := And(ExprOf(leaf), ExprOf(SubsetQuery([]Item{1})))
	ctx := context.Background()
	for kind, ix := range buildAll(t, c) {
		t.Run(kind.String(), func(t *testing.T) {
			store := NewStore(ix, 4)
			plain := func(name string, ids []uint32, err error) {
				t.Helper()
				if err != nil || ids == nil || len(ids) != 0 {
					t.Errorf("%s: got %v, %v, want a non-nil empty slice", name, ids, err)
				}
			}
			ids, err := store.Exec(ctx, leaf)
			plain("Exec", ids, err)
			batch, err := store.ExecBatch(ctx, []Query{leaf, leaf})
			if err != nil || len(batch) != 2 {
				t.Fatalf("ExecBatch: %v, %v", batch, err)
			}
			plain("ExecBatch[0]", batch[0], nil)
			plain("ExecBatch[1]", batch[1], nil)

			buf := make([]uint32, 2, 8)
			for _, dst := range [][]uint32{nil, buf} {
				appended := func(name string, ids []uint32, err error) {
					t.Helper()
					switch {
					case err != nil:
						t.Errorf("%s: %v", name, err)
					case dst == nil && ids != nil:
						t.Errorf("%s(nil dst): got %v, want nil", name, ids)
					case dst != nil && (len(ids) != len(dst) || &ids[0] != &dst[0]):
						t.Errorf("%s: got %v, want dst itself", name, ids)
					}
				}
				ids, err := store.ExecAppend(ctx, dst, leaf)
				appended("ExecAppend", ids, err)
				ids, err = store.ExecExprAppend(ctx, dst, ExprOf(leaf))
				appended("ExecExprAppend(leaf)", ids, err)
				ids, err = store.ExecExprAppend(ctx, dst, tree)
				appended("ExecExprAppend(tree)", ids, err)
				ids, err = store.ExecExprLimitAppend(ctx, dst, tree, 3)
				appended("ExecExprLimitAppend", ids, err)
			}
		})
	}
}

// pageBudget is a context whose Err turns into context.Canceled once it
// has been consulted more than left times. An in-process shard session
// points its reader's buffer pool at the call's ctx.Err, which the pool
// consults before every page request, so this is a cancellation after
// that many pages.
type pageBudget struct {
	context.Context
	left atomic.Int64
}

func (c *pageBudget) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCancellationBetweenBlockReads proves a call in flight stops at the
// next list-block read once its ctx ends, on every session that
// evaluates anything: a single engine's, and each shard's of a sharded
// index. The ctx is the only signal there is; the session arms its
// reader's pool with it for the duration of the call and no longer.
func TestCancellationBetweenBlockReads(t *testing.T) {
	c := sampleCollection(t)
	// A wide superset query reads one list per query item, so every
	// engine crosses many list blocks.
	wide := make([]Item, 20)
	for i := range wide {
		wide[i] = Item(i)
	}
	calls := map[string]func(ctx context.Context, sess ShardSession) error{
		"AppendQuery": func(ctx context.Context, sess ShardSession) error {
			_, err := sess.AppendQuery(ctx, nil, SupersetQuery(wide))
			return err
		},
		"AppendExpr": func(ctx context.Context, sess ShardSession) error {
			tree := Or(ExprOf(SupersetQuery(wide)), ExprOf(SubsetQuery([]Item{1})))
			_, err := sess.AppendExpr(ctx, nil, tree, 0)
			return err
		},
	}
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	for kind, ix := range buildAll(t, c) {
		t.Run(kind.String(), func(t *testing.T) {
			var sessions []ShardSession
			if se, ok := ix.eng.(*shardedEngine); ok {
				r, err := se.openReader(4)
				if err != nil {
					t.Fatal(err)
				}
				sessions = r.sess
			} else {
				sess, err := InprocShard(ix.eng).Session(4)
				if err != nil {
					t.Fatal(err)
				}
				sessions = []ShardSession{sess}
			}
			for s, sess := range sessions {
				for name, call := range calls {
					// The entry check spends one consultation, two pages the rest.
					budget := &pageBudget{Context: live}
					budget.left.Store(3)
					if err := call(budget, sess); !errors.Is(err, context.Canceled) {
						t.Errorf("session %d: %s canceled after two pages: got %v, want context.Canceled", s, name, err)
					}
					if budget.left.Load() != -1 {
						t.Errorf("session %d: %s consulted its ctx %d times past the cancel, want it to stop at the first",
							s, name, -1-budget.left.Load())
					}
					// The call's return disarmed the reader.
					if err := call(context.Background(), sess); err != nil {
						t.Errorf("session %d: %s after the canceled call: %v", s, name, err)
					}
				}
			}
		})
	}
}

// TestStoreCancelMidFlight cancels while parallel Exec calls stream
// answers: every call must either succeed or fail with context.Canceled,
// and calls issued after the cancel must fail.
func TestStoreCancelMidFlight(t *testing.T) {
	c := sampleCollection(t)
	ix, err := New(c, WithPageSize(512), WithBlockPostings(8))
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore(ix, 4)
	queries := storeWorkload(200, 84)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(queries); i += 4 {
				if i == 40 {
					cancel()
				}
				if _, err := store.Exec(ctx, queries[i]); err != nil && !errors.Is(err, context.Canceled) {
					errs <- fmt.Errorf("query %d: %v", i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if _, err := store.Exec(ctx, queries[0]); !errors.Is(err, context.Canceled) {
		t.Errorf("post-cancel Exec: got %v, want context.Canceled", err)
	}
}

// TestStoreRefresh checks pooled readers are retired after Refresh so
// updates become visible, and stay frozen before it.
func TestStoreRefresh(t *testing.T) {
	c := sampleCollection(t)
	ix, err := New(c, WithPageSize(512), WithBlockPostings(8))
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore(ix, 4)
	ctx := context.Background()
	q := SubsetQuery([]Item{1, 2, 3})
	before, err := store.Exec(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	id, err := ix.Insert([]Item{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	stale, err := store.Exec(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(stale) != len(before) {
		// Permitted: sync.Pool may have dropped the reader (GC), and a
		// freshly created one legitimately sees the insert.
		t.Logf("pooled reader recycled before Refresh: %d vs %d", len(stale), len(before))
	}
	store.Refresh()
	fresh, err := store.Exec(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, got := range fresh {
		if got == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("refreshed reader misses inserted record %d: %v", id, fresh)
	}
}
