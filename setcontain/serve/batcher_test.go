package serve_test

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/setcontain"
	"repro/setcontain/serve"
)

// serveCollection builds a skewed synthetic collection big enough to
// exercise multi-block lists but quick to index in a unit test.
func serveCollection(t testing.TB) *setcontain.Collection {
	t.Helper()
	d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		NumRecords: 6000,
		DomainSize: 300,
		MinLen:     2,
		MaxLen:     14,
		ZipfTheta:  0.9,
		Seed:       23,
	})
	if err != nil {
		t.Fatal(err)
	}
	return setcontain.WrapDataset(d)
}

// serveQueries draws a deterministic mixed workload whose items follow
// the records' own skew.
func serveQueries(t testing.TB, c *setcontain.Collection, count int) []setcontain.Query {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	preds := []setcontain.Predicate{
		setcontain.PredicateSubset,
		setcontain.PredicateEquality,
		setcontain.PredicateSuperset,
	}
	var qs []setcontain.Query
	for len(qs) < count {
		set, err := c.Record(uint32(1 + rng.Intn(c.Len())))
		if err != nil {
			t.Fatal(err)
		}
		if len(set) < 2 {
			continue
		}
		k := 2 + rng.Intn(len(set)-1)
		items := append([]setcontain.Item(nil), set...)
		rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		items = items[:k]
		qs = append(qs, setcontain.Query{Pred: preds[len(qs)%len(preds)], Items: items})
	}
	return qs
}

func newTestStore(t testing.TB, opts ...setcontain.Option) (*setcontain.Collection, *setcontain.Index, *setcontain.Store) {
	t.Helper()
	c := serveCollection(t)
	idx, err := setcontain.New(c, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c, idx, setcontain.NewStore(idx, 0)
}

// TestBatcherAnswersMatchStore checks concurrent queries through the
// batcher return exactly the Store's direct answers.
func TestBatcherAnswersMatchStore(t *testing.T) {
	c, _, store := newTestStore(t)
	// MaxPending must cover the 60 simultaneous submissions below —
	// admission control is exercised separately in TestBatcherSaturation.
	b := serve.NewBatcher(store, serve.Config{MaxPending: 128})
	defer b.Close()

	queries := serveQueries(t, c, 60)
	want := make([][]uint32, len(queries))
	for i, q := range queries {
		ids, err := store.Exec(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ids
	}

	var wg sync.WaitGroup
	errs := make([]error, len(queries))
	got := make([][]uint32, len(queries))
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q setcontain.Query) {
			defer wg.Done()
			got[i], errs[i] = b.DoExprLimit(context.Background(), nil, setcontain.ExprOf(q), 0)
		}(i, q)
	}
	wg.Wait()
	for i := range queries {
		if errs[i] != nil {
			t.Fatalf("query %d %v: %v", i, queries[i], errs[i])
		}
		if len(got[i]) != len(want[i]) {
			t.Fatalf("query %d %v: %d ids via batcher, %d direct", i, queries[i], len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("query %d %v: id[%d] = %d via batcher, %d direct", i, queries[i], j, got[i][j], want[i][j])
			}
		}
	}
}

// blockingCtx is a context whose Err blocks from its second call until
// the gate closes — it parks its query in the Store (whose entry check
// consults Err) while the query holds an execution slot, so saturation
// behaviour is testable deterministically even on one core. The first
// call passes so DoExprLimit's own entry check does not block the
// submitter before it is admitted.
type blockingCtx struct {
	context.Context
	calls atomic.Int64
	gate  chan struct{}
	done  chan struct{}
}

func newBlockingCtx() *blockingCtx {
	return &blockingCtx{Context: context.Background(), gate: make(chan struct{}), done: make(chan struct{})}
}

func (c *blockingCtx) Done() <-chan struct{} { return c.done }

func (c *blockingCtx) Err() error {
	if c.calls.Add(1) > 1 {
		<-c.gate
	}
	return nil
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatcherSaturation parks the only dispatcher mid-batch, fills the
// one-slot admission queue, and checks every further query is shed
// with ErrSaturated instead of queued unboundedly — then releases the
// dispatcher and checks the queued work drains normally.
func TestBatcherSaturation(t *testing.T) {
	c, _, store := newTestStore(t)
	b := serve.NewBatcher(store, serve.Config{
		MaxPending:  1,
		Dispatchers: 1,
	})
	defer b.Close()

	queries := serveQueries(t, c, 8)
	gate := newBlockingCtx()
	var wg sync.WaitGroup
	var served, saturated atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := b.DoExprLimit(gate, nil, setcontain.ExprOf(queries[0]), 0); err != nil {
			t.Errorf("gated query: %v", err)
			return
		}
		served.Add(1)
	}()
	// The dispatcher is parked once it consults the gate context's Err.
	waitFor(t, "dispatcher to park on the gate", func() bool { return gate.calls.Load() >= 2 })

	// With the dispatcher parked, the queue holds exactly MaxPending=1
	// query; every other submission must shed.
	const flood = 8
	for w := 0; w < flood; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, err := b.DoExprLimit(context.Background(), nil, setcontain.ExprOf(queries[1+w%4]), 0)
			switch {
			case err == nil:
				served.Add(1)
			case errors.Is(err, serve.ErrSaturated):
				saturated.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}(w)
	}
	waitFor(t, "floods to shed", func() bool { return saturated.Load() >= flood-1 })
	close(gate.gate)
	wg.Wait()

	if got := served.Load(); got != 2 {
		t.Errorf("served %d queries, want 2 (the gated one and the one queued slot)", got)
	}
	if got := saturated.Load(); got != flood-1 {
		t.Errorf("shed %d queries, want %d", got, flood-1)
	}
	if got := b.Stats().Rejected; got != saturated.Load() {
		t.Errorf("stats.Rejected = %d, callers saw %d ErrSaturated", got, saturated.Load())
	}
}

// countdownCtx is a context whose Err flips to context.Canceled after
// a fixed number of Err calls — a deterministic stand-in for a client
// disconnecting mid-execution. Its non-nil Done channel (never closed)
// makes the Store arm its interrupt hook, which consults Err between
// list-block reads.
type countdownCtx struct {
	context.Context
	calls atomic.Int64
	after int64
	done  chan struct{}
}

func newCountdownCtx(after int64) *countdownCtx {
	return &countdownCtx{Context: context.Background(), after: after, done: make(chan struct{})}
}

func (c *countdownCtx) Done() <-chan struct{} { return c.done }

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestBatcherCancelMidExecution proves a query cancelled *during*
// execution stops the underlying Store work: the request context's
// error surfaces through the reader's interrupt hook between
// list-block reads, and batchmates are unaffected.
func TestBatcherCancelMidExecution(t *testing.T) {
	_, _, store := newTestStore(t, setcontain.WithPageSize(512), setcontain.WithBlockPostings(8))
	b := serve.NewBatcher(store, serve.Config{Dispatchers: 1})
	defer b.Close()

	// A wide superset query walks one inverted list per query item, so
	// the interrupt hook is consulted many times mid-query.
	wide := make([]setcontain.Item, 40)
	for i := range wide {
		wide[i] = setcontain.Item(i)
	}
	q := setcontain.SupersetQuery(wide)

	ctx := newCountdownCtx(4)
	_, err := b.DoExprLimit(ctx, nil, setcontain.ExprOf(q), 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-execution cancel: got %v, want context.Canceled", err)
	}
	if calls := ctx.calls.Load(); calls <= 4 {
		t.Fatalf("interrupt hook consulted %d times; cancellation did not fire mid-execution", calls)
	}

	// The batcher stays healthy: the same query on a live context
	// answers normally.
	if _, err := b.DoExprLimit(context.Background(), nil, setcontain.ExprOf(q), 0); err != nil {
		t.Fatalf("query after cancelled batchmate: %v", err)
	}
}

// TestBatcherClosed checks Close fails a query waiting for a slot and
// every later query with ErrClosed, returns without waiting for the
// query executing in the slot — which completes once it can — and is
// safe to call twice.
func TestBatcherClosed(t *testing.T) {
	c, _, store := newTestStore(t)
	b := serve.NewBatcher(store, serve.Config{Dispatchers: 1})
	queries := serveQueries(t, c, 2)
	q := setcontain.ExprOf(queries[0])
	if _, err := b.DoExprLimit(context.Background(), nil, q, 0); err != nil {
		t.Fatal(err)
	}

	gate := newBlockingCtx()
	gated := make(chan error, 1)
	go func() {
		_, err := b.DoExprLimit(gate, nil, q, 0)
		gated <- err
	}()
	waitFor(t, "the gated query to hold the slot", func() bool { return gate.calls.Load() >= 2 })
	waiting := make(chan error, 1)
	go func() {
		_, err := b.DoExprLimit(context.Background(), nil, setcontain.ExprOf(queries[1]), 0)
		waiting <- err
	}()
	waitFor(t, "a query to wait for the slot", func() bool { return b.Stats().Pending == 1 })

	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close waited for the query executing in the slot")
	}
	if err := <-waiting; !errors.Is(err, serve.ErrClosed) {
		t.Errorf("query waiting at Close: got %v, want ErrClosed", err)
	}
	if _, err := b.DoExprLimit(context.Background(), nil, q, 0); !errors.Is(err, serve.ErrClosed) {
		t.Errorf("Do after Close: got %v, want ErrClosed", err)
	}
	select {
	case err := <-gated:
		t.Fatalf("gated query returned before its gate opened: %v", err)
	default:
	}
	close(gate.gate)
	if err := <-gated; err != nil {
		t.Errorf("query executing at Close: %v, want its answer", err)
	}
	b.Close() // idempotent
}

// TestBatcherZeroAllocs is the serving-core allocation gate: a
// steady-state query through DoExprLimit — slot admission,
// Store.ExecExprLimitAppend, answer append — must not allocate beyond
// the caller's request decode/encode.
func TestBatcherZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	c, idx, _ := newTestStore(t, setcontain.WithKind(setcontain.OIF), setcontain.WithCachePages(2048))
	store := setcontain.NewStore(idx, 2048)
	b := serve.NewBatcher(store, serve.Config{
		Dispatchers: 1,
	})
	defer b.Close()

	queries := serveQueries(t, c, 20)
	ctx := context.Background()
	// Warm: caches, arenas, waiter pool, and the answer buffer reach
	// their high-water marks.
	dst := make([]uint32, 0, 64)
	var err error
	for pass := 0; pass < 3; pass++ {
		for _, q := range queries {
			if dst, err = b.DoExprLimit(ctx, dst[:0], setcontain.ExprOf(q), 0); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, q := range queries {
		e := setcontain.ExprOf(q) // built once: the request, not the call, owns it
		allocs := testing.AllocsPerRun(50, func() {
			var err error
			dst, err = b.DoExprLimit(ctx, dst[:0], e, 0)
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: %.2f allocs per steady-state batched query, want 0", q, allocs)
		}
	}
}
