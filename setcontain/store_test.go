package setcontain

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/naive"
	"repro/internal/wal"
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
				ids, err := q.Eval(ix)
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

// TestStoreReadsItsWrites: after each direct Insert, Delete and
// MergeDelta on the Index, the Store's next query reflects it, although
// the query before the mutation left a reader of the old state pooled.
func TestStoreReadsItsWrites(t *testing.T) {
	c := sampleCollection(t)
	q := SubsetQuery([]Item{1, 2, 3})
	for _, tc := range deleteKinds {
		t.Run(tc.name, func(t *testing.T) {
			ix, err := New(c, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			store := NewStore(ix, 4)
			exec := func(step string, want []uint32) {
				t.Helper()
				got, err := store.Exec(t.Context(), q)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("after %s: %v, want %v", step, got, want)
				}
			}
			before, err := store.Exec(t.Context(), q)
			if err != nil {
				t.Fatal(err)
			}
			if len(before) == 0 {
				t.Fatal("setup broken: the probe matches no record")
			}
			id, err := ix.Insert([]Item{1, 2, 3})
			if err != nil {
				t.Fatal(err)
			}
			exec("Insert", append(slices.Clone(before), id))
			if err := ix.Delete(id); err != nil {
				t.Fatal(err)
			}
			exec("Delete", before)
			id, err = ix.Insert([]Item{1, 2, 3})
			if err != nil {
				t.Fatal(err)
			}
			exec("the second Insert", append(slices.Clone(before), id))
			if err := ix.MergeDelta(); err != nil {
				t.Fatal(err)
			}
			exec("MergeDelta", append(slices.Clone(before), id))
			if err := ix.Delete(before[0]); err != nil {
				t.Fatal(err)
			}
			exec("a Delete after MergeDelta", append(slices.Clone(before[1:]), id))
		})
	}
}

// probeBase draws a collection of 600 records over [0, domain) in a
// domain of domain+1 items, so the item domain — the probe — is held by
// no base record.
func probeBase(t *testing.T, domain int, rng *rand.Rand) *Collection {
	t.Helper()
	base := NewCollection(domain + 1)
	for i := 0; i < 600; i++ {
		set := make([]Item, 1+rng.Intn(6))
		for j := range set {
			set[j] = Item(rng.Intn(domain))
		}
		if _, err := base.Add(set); err != nil {
			t.Fatal(err)
		}
	}
	return base
}

// probeOp is one op of a probe script: insert set, which must be
// assigned id, or delete del, or — neither — merge.
type probeOp struct {
	set []Item
	id  uint32
	del uint32
}

// probeScript draws ops ops over base — every fifth a merge, every
// third else a delete of the oldest live insert, the rest inserts of the
// probe and one more item — and, from a mirror of the records,
// internal/naive's answer to Subset{probe} after each: want[k] holds
// after op k, want[0] before any. script[0] is unused.
func probeScript(t *testing.T, base *Collection, probe Item, ops int, rng *rand.Rand) ([]probeOp, [][]uint32) {
	t.Helper()
	domain := base.DomainSize() - 1
	mirror := dataset.New(base.DomainSize())
	for _, r := range base.ds.Records() {
		if _, err := mirror.Add(r.Set); err != nil {
			t.Fatal(err)
		}
	}
	script := make([]probeOp, ops+1)
	want := make([][]uint32, ops+1)
	dead := map[uint32]bool{}
	var live []uint32
	for k := 1; k <= ops; k++ {
		switch {
		case k%5 == 0: // merge
		case k%3 == 0 && len(live) > 0:
			script[k].del, live = live[0], live[1:]
			dead[script[k].del] = true
		default:
			script[k].set = []Item{probe, Item(rng.Intn(domain))}
			var err error
			if script[k].id, err = mirror.Add(script[k].set); err != nil {
				t.Fatal(err)
			}
			live = append(live, script[k].id)
		}
		for _, id := range naive.Subset(mirror, []Item{probe}) {
			if !dead[id] {
				want[k] = append(want[k], id)
			}
		}
	}
	return script, want
}

// mutator applies a probe script: through the Index's own methods or
// through a Durable's batches.
type mutator struct {
	insert func([]Item) (uint32, error)
	del    func(uint32) error
	merge  func() error
}

func indexMutator(ix *Index) mutator { return mutator{ix.Insert, ix.Delete, ix.MergeDelta} }

func durableMutator(d *Durable) mutator {
	return mutator{
		insert: func(set []Item) (uint32, error) {
			ids, err := d.InsertSets([][]Item{set})
			if err != nil {
				return 0, err
			}
			return ids[0], nil
		},
		del:   func(id uint32) error { return d.DeleteIDs([]uint32{id}) },
		merge: d.MergeDelta,
	}
}

// apply runs op k of a probe script.
func (m mutator) apply(t *testing.T, k int, o probeOp) {
	t.Helper()
	switch {
	case o.set != nil:
		id, err := m.insert(o.set)
		if err != nil {
			t.Fatal(err)
		}
		if id != o.id {
			t.Fatalf("op %d: Insert assigned id %d, the mirror %d", k, id, o.id)
		}
	case o.del != 0:
		if err := m.del(o.del); err != nil {
			t.Fatal(err)
		}
	default:
		if err := m.merge(); err != nil {
			t.Fatal(err)
		}
	}
}

// inWindow returns the first k in [lo, hi] with got == want[k], or -1.
func inWindow(got []uint32, want [][]uint32, lo, hi int64) int64 {
	for k := lo; k <= hi; k++ {
		if slices.Equal(got, want[k]) {
			return k
		}
	}
	return -1
}

// TestDirectMutationAnswerWindow mutates the Index directly — Insert,
// Delete and MergeDelta, no Store call — while two goroutines query it
// through a Store, collecting garbage between queries so pooled readers
// are dropped and made anew beside the mutations. Every answer must be
// internal/naive's after some op k, with k at least the ops acknowledged
// before the query started and at most the ops begun before it
// returned. The probe item is held by no base record, so only the
// script's own records answer it. The Durable target runs the same
// script through a Durable's batches, checkpointing in the background,
// and queries its Store.
func TestDirectMutationAnswerWindow(t *testing.T) {
	const domain, ops = 40, 48
	probe := Item(domain)
	rng := rand.New(rand.NewSource(53))
	base := probeBase(t, domain, rng)
	targets := append(slices.Clone(deleteKinds), struct {
		name string
		opts []Option
	}{"Durable", deleteKinds[0].opts})
	for _, tc := range targets {
		t.Run(tc.name, func(t *testing.T) {
			ix, err := New(base, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			script, want := probeScript(t, base, probe, ops, rng)
			store, m := NewStore(ix, 4), indexMutator(ix)
			if tc.name == "Durable" {
				d, err := NewDurable("wal", ix, DurableOptions{
					CachePages: 4, FS: wal.NewMemFS(), SegmentBytes: 512, CheckpointBytes: 256,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer d.Close()
				store, m = d.Store(), durableMutator(d)
			}
			q := SubsetQuery([]Item{probe})
			var begun, acked, answered atomic.Int64
			done := make(chan struct{})
			var wg sync.WaitGroup
			defer func() {
				close(done)
				wg.Wait()
			}()
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						lo := acked.Load()
						got, err := store.Exec(t.Context(), q)
						hi := begun.Load()
						if err != nil {
							t.Error(err)
							return
						}
						if inWindow(got, want, lo, hi) < 0 {
							t.Errorf("a query started after op %d returned and ended before op %d began: %v, which no op in between left", lo, hi+1, got)
							return
						}
						answered.Add(1)
						runtime.GC()
					}
				}()
			}
			for k := 1; k <= ops; k++ {
				// Let a query finish between any two ops.
				for n := answered.Load(); answered.Load() == n && !t.Failed(); {
					runtime.Gosched()
				}
				begun.Store(int64(k))
				m.apply(t, k, script[k])
				acked.Store(int64(k))
			}
		})
	}
}
