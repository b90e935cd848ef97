// Transport equivalence is the payoff property of the shard transport
// abstraction and of the single request core above it: the same
// collection served through four different stacks — one engine, a
// sharded engine, in-process ShardClients, and remote HTTP shard
// daemons — and asked through every public entry point must answer
// every query, expression, and limited expression exactly like the
// brute-force oracle, through pending inserts and deletes, after the
// delta merge, and under cancellation.
// This file lives in the external test package so it can stand real
// daemons up with setcontain/serve without an import cycle.
package setcontain_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/naive"
	"repro/setcontain"
	"repro/setcontain/serve"
)

// transportVariant is one way of serving the shared collection: the
// index, the store over it, and a serve.Server over both for the
// entry points that live in the serving layer.
type transportVariant struct {
	name  string
	idx   *setcontain.Index
	store *setcontain.Store
	srv   *serve.Server
	url   string
	// clients are the variant's shard clients, for the stacks built over
	// ShardedOverClients (nil otherwise).
	clients []setcontain.ShardClient
}

// buildTransportVariants stands up the four stacks over identical data.
// Each variant gets its own engines — mutations must not alias across
// variants — and the HTTP one gets a live httptest daemon per shard. A
// non-nil wrap decorates every shard client of the three sharded stacks,
// a non-nil daemon the handler of every shard daemon of the HTTP one
// (fault injection on either side of the wire, see fault_test.go).
func buildTransportVariants(t *testing.T, sets [][]setcontain.Item, domain, shards int,
	wrap func(variant string, shard int, c setcontain.ShardClient) setcontain.ShardClient,
	daemon func(shard int, h http.Handler) http.Handler) []*transportVariant {
	t.Helper()
	build := func(kind setcontain.Kind) *setcontain.Index {
		c := setcontain.NewCollection(domain)
		for _, s := range sets {
			if _, err := c.Add(s); err != nil {
				t.Fatal(err)
			}
		}
		idx, err := setcontain.New(c, setcontain.WithKind(kind), setcontain.WithShards(shards),
			setcontain.WithPageSize(512), setcontain.WithBlockPostings(8))
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	// serveOver fronts idx with a daemon; the small chunk size makes
	// multi-chunk (and, on /stream, multi-flush) answers routine.
	serveOver := func(idx *setcontain.Index, around func(http.Handler) http.Handler) (*setcontain.Store, *serve.Server, string) {
		store := setcontain.NewStore(idx, 8)
		sv := serve.NewServer(idx, store, serve.Config{ChunkIDs: 16})
		h := sv.Handler()
		if around != nil {
			h = around(h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		t.Cleanup(sv.Close)
		return store, sv, ts.URL
	}
	var variants []*transportVariant
	add := func(name string, idx *setcontain.Index, clients []setcontain.ShardClient) {
		store, sv, url := serveOver(idx, nil)
		variants = append(variants, &transportVariant{name, idx, store, sv, url, clients})
	}
	addOverClients := func(name string, client func(shard int, eng setcontain.Engine) setcontain.ShardClient) {
		var clients []setcontain.ShardClient
		for s, eng := range setcontain.ShardEngines(build(setcontain.Sharded).Engine()) {
			c := client(s, eng)
			if wrap != nil {
				c = wrap(name, s, c)
			}
			clients = append(clients, c)
		}
		idx, err := setcontain.ShardedOverClients(context.Background(), clients)
		if err != nil {
			t.Fatalf("coordinator: %v", err)
		}
		add(name, idx, clients)
	}
	add("single", build(setcontain.OIF), nil)
	sharded := build(setcontain.Sharded)
	if wrap != nil {
		setcontain.WrapShardClients(sharded, func(s int, c setcontain.ShardClient) setcontain.ShardClient {
			return wrap("sharded", s, c)
		})
	}
	add("sharded", sharded, nil)
	addOverClients("inproc", func(_ int, eng setcontain.Engine) setcontain.ShardClient { return setcontain.InprocShard(eng) })
	addOverClients("http", func(s int, eng setcontain.Engine) setcontain.ShardClient {
		var around func(http.Handler) http.Handler
		if daemon != nil {
			around = func(h http.Handler) http.Handler { return daemon(s, h) }
		}
		_, _, url := serveOver(setcontain.IndexOver(eng), around)
		return setcontain.NewRemoteShard(url, nil)
	})
	return variants
}

// transportOp is one request of the equivalence workload: an expression
// (a plain query is its one-leaf case) and a first-n limit, 0 = all.
type transportOp struct {
	expr  *setcontain.Expr
	limit int
}

// naiveOracle is the brute-force reference every entry point of every
// variant is held to: internal/naive over a mirror of the records, the
// tombstoned ids masked, expressions through the naive left-to-right
// Expr.Eval.
type naiveOracle struct {
	d    *dataset.Dataset
	dead map[uint32]bool
}

func (o *naiveOracle) live(ids []uint32) ([]uint32, error) {
	return slices.DeleteFunc(ids, func(id uint32) bool { return o.dead[id] }), nil
}

func (o *naiveOracle) Subset(qs []setcontain.Item) ([]uint32, error) {
	return o.live(naive.Subset(o.d, qs))
}

func (o *naiveOracle) Equality(qs []setcontain.Item) ([]uint32, error) {
	return o.live(naive.Equality(o.d, qs))
}

func (o *naiveOracle) Superset(qs []setcontain.Item) ([]uint32, error) {
	return o.live(naive.Superset(o.d, qs))
}

func (o *naiveOracle) answer(t *testing.T, op transportOp) []uint32 {
	t.Helper()
	ids, err := op.expr.Eval(o)
	if err != nil {
		t.Fatalf("oracle %s: %v", op.expr, err)
	}
	if op.limit > 0 && len(ids) > op.limit {
		ids = ids[:op.limit]
	}
	return ids
}

// entryPoint is one public way of asking a variant a question — one
// column of the equivalence table. accepts says which ops it can
// express (the Query forms take plain leaves only); run answers the
// accepted ops in order.
type entryPoint struct {
	name    string
	accepts func(op transportOp) bool
	run     func(ctx context.Context, v *transportVariant, ops []transportOp) ([][]uint32, error)
}

func anyOp(transportOp) bool          { return true }
func unlimitedOp(op transportOp) bool { return op.limit == 0 }
func leafOp(op transportOp) bool {
	_, leaf := op.expr.AsQuery()
	return leaf && op.limit == 0
}

// perOp lifts a one-request entry point to a column.
func perOp(one func(ctx context.Context, v *transportVariant, op transportOp) ([]uint32, error)) func(context.Context, *transportVariant, []transportOp) ([][]uint32, error) {
	return func(ctx context.Context, v *transportVariant, ops []transportOp) ([][]uint32, error) {
		out := make([][]uint32, len(ops))
		for i, op := range ops {
			ids, err := one(ctx, v, op)
			if err != nil {
				return nil, fmt.Errorf("op %d (%s limit %d): %w", i, op.expr, op.limit, err)
			}
			out[i] = ids
		}
		return out, nil
	}
}

// perQuery lifts a one-Query entry point to a column over leaf ops.
func perQuery(one func(ctx context.Context, v *transportVariant, q setcontain.Query) ([]uint32, error)) func(context.Context, *transportVariant, []transportOp) ([][]uint32, error) {
	return perOp(func(ctx context.Context, v *transportVariant, op transportOp) ([]uint32, error) {
		q, _ := op.expr.AsQuery()
		return one(ctx, v, q)
	})
}

// entryPoints lists every surviving public execution form.
var entryPoints = []entryPoint{
	{"Index.Eval", leafOp, perQuery(func(ctx context.Context, v *transportVariant, q setcontain.Query) ([]uint32, error) {
		if err := ctx.Err(); err != nil {
			return nil, err // the engine level takes no context
		}
		return v.idx.Eval(q)
	})},
	{"Index.EvalExprLimit", anyOp, perOp(func(ctx context.Context, v *transportVariant, op transportOp) ([]uint32, error) {
		if err := ctx.Err(); err != nil {
			return nil, err // the engine level takes no context
		}
		return v.idx.EvalExprLimit(op.expr, op.limit)
	})},
	{"Reader.EvalAppend", leafOp, func(ctx context.Context, v *transportVariant, ops []transportOp) ([][]uint32, error) {
		if err := ctx.Err(); err != nil {
			return nil, err // the engine level takes no context
		}
		// One reader for the stage: it snapshots the state it opens on.
		r, err := v.idx.NewReader(8)
		if err != nil {
			return nil, err
		}
		return perQuery(func(_ context.Context, _ *transportVariant, q setcontain.Query) ([]uint32, error) {
			return r.EvalAppend(nil, q)
		})(ctx, v, ops)
	}},
	{"Store.Exec", leafOp, perQuery(func(ctx context.Context, v *transportVariant, q setcontain.Query) ([]uint32, error) {
		return v.store.Exec(ctx, q)
	})},
	{"Store.ExecAppend", leafOp, perQuery(func(ctx context.Context, v *transportVariant, q setcontain.Query) ([]uint32, error) {
		return v.store.ExecAppend(ctx, nil, q)
	})},
	{"Store.ExecExprAppend", unlimitedOp, perOp(func(ctx context.Context, v *transportVariant, op transportOp) ([]uint32, error) {
		return v.store.ExecExprAppend(ctx, nil, op.expr)
	})},
	{"Store.ExecExprLimitAppend", anyOp, perOp(func(ctx context.Context, v *transportVariant, op transportOp) ([]uint32, error) {
		return v.store.ExecExprLimitAppend(ctx, nil, op.expr, op.limit)
	})},
	{"Store.ExecBatch", leafOp, func(ctx context.Context, v *transportVariant, ops []transportOp) ([][]uint32, error) {
		qs := make([]setcontain.Query, len(ops))
		for i, op := range ops {
			qs[i], _ = op.expr.AsQuery()
		}
		return v.store.ExecBatch(ctx, qs)
	}},
	// One batch carrying the whole mix: plain leaves (spelled as Query
	// and as one-leaf Expr alternately), trees, and limited items.
	{"Store.ExecBatchAppend", anyOp, func(ctx context.Context, v *transportVariant, ops []transportOp) ([][]uint32, error) {
		items := make([]setcontain.BatchItem, len(ops))
		for i, op := range ops {
			items[i] = setcontain.BatchItem{Expr: op.expr, Limit: op.limit}
			if q, leaf := op.expr.AsQuery(); leaf && i%2 == 0 {
				items[i] = setcontain.BatchItem{Query: q, Limit: op.limit}
			}
		}
		if n, err := v.store.ExecBatchAppend(ctx, items); err != nil {
			return nil, fmt.Errorf("after %d items: %w", n, err)
		}
		out := make([][]uint32, len(ops))
		for i := range items {
			if items[i].Err != nil {
				return nil, fmt.Errorf("item %d (%s limit %d): %w", i, ops[i].expr, ops[i].limit, items[i].Err)
			}
			out[i] = items[i].Out
		}
		return out, nil
	}},
	{"Batcher.DoExprLimit", anyOp, perOp(func(ctx context.Context, v *transportVariant, op transportOp) ([]uint32, error) {
		return v.srv.Batcher().DoExprLimit(ctx, nil, op.expr, op.limit)
	})},
	{"GET /stream", anyOp, perOp(func(ctx context.Context, v *transportVariant, op transportOp) ([]uint32, error) {
		target := fmt.Sprintf("%s/stream?q=%s&limit=%d", v.url, url.QueryEscape(op.expr.String()), op.limit)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %s", resp.Status)
		}
		var ids []uint32
		for dec := json.NewDecoder(resp.Body); ; {
			var line serve.Result
			if err := dec.Decode(&line); err != nil {
				return nil, fmt.Errorf("stream ended before its final line: %w", err)
			}
			if line.Error != "" {
				return nil, errors.New(line.Error)
			}
			ids = append(ids, line.IDs...)
			if line.Done {
				if line.Count != len(ids) {
					return nil, fmt.Errorf("final count %d, streamed %d ids", line.Count, len(ids))
				}
				return ids, nil
			}
		}
	})},
}

// randomExprText draws a boolean expression over Zipf-skewed leaves in
// the ParseExpr grammar.
func randomExprText(rng *rand.Rand, z *dataset.Zipf) string {
	leaf := func() string {
		preds := []string{"subset", "equality", "superset"}
		items := z.SampleDistinct(rng, 1+rng.Intn(4))
		strs := make([]string, len(items))
		for i, it := range items {
			strs[i] = fmt.Sprint(it)
		}
		return fmt.Sprintf("%s{%s}", preds[rng.Intn(len(preds))], strings.Join(strs, " "))
	}
	switch rng.Intn(4) {
	case 0:
		return leaf()
	case 1:
		return leaf() + " and " + leaf()
	case 2:
		return leaf() + " or not " + leaf()
	default:
		return "(" + leaf() + " or " + leaf() + ") and not " + leaf()
	}
}

// TestTransportEquivalence is the property test: every public entry
// point of every stack — remote shards, in-process clients, sharded
// engine, single engine — answers every query, expression, and limited
// expression exactly like the brute-force oracle, with pending inserts
// and deletes, after the merge, and canceled cleanly.
func TestTransportEquivalence(t *testing.T) {
	const (
		domain  = 48
		shards  = 3
		records = 900
	)
	rng := rand.New(rand.NewSource(7))
	z := dataset.NewZipf(domain, 0.9)
	oracle := &naiveOracle{d: dataset.New(domain), dead: map[uint32]bool{}}
	sets := make([][]setcontain.Item, records)
	for i := range sets {
		sets[i] = z.SampleDistinct(rng, 1+rng.Intn(6))
		if _, err := oracle.d.Add(sets[i]); err != nil {
			t.Fatal(err)
		}
	}
	variants := buildTransportVariants(t, sets, domain, shards, nil, nil)

	var ops []transportOp
	preds := []setcontain.Predicate{setcontain.PredicateSubset, setcontain.PredicateEquality, setcontain.PredicateSuperset}
	for i := 0; i < 30; i++ {
		ops = append(ops, transportOp{expr: setcontain.ExprOf(setcontain.Query{
			Pred:  preds[rng.Intn(len(preds))],
			Items: z.SampleDistinct(rng, 1+rng.Intn(5)),
		})})
	}
	for i := 0; i < 20; i++ {
		text := randomExprText(rng, z)
		e, err := setcontain.ParseExpr(text)
		if err != nil {
			t.Fatalf("generated unparseable expr %q: %v", text, err)
		}
		ops = append(ops, transportOp{expr: e, limit: rng.Intn(12)}) // 0 = unlimited
	}

	ctx := context.Background()
	compare := func(stage string) {
		t.Helper()
		want := make([][]uint32, len(ops))
		for i, op := range ops {
			want[i] = oracle.answer(t, op)
		}
		for _, v := range variants {
			for _, ep := range entryPoints {
				var accepted []int
				var asked []transportOp
				for i, op := range ops {
					if ep.accepts(op) {
						accepted = append(accepted, i)
						asked = append(asked, op)
					}
				}
				got, err := ep.run(ctx, v, asked)
				if err != nil {
					t.Fatalf("%s: %s %s: %v", stage, v.name, ep.name, err)
				}
				for k, i := range accepted {
					if !slices.Equal(got[k], want[i]) {
						t.Fatalf("%s: %s %s (%s limit %d): %v, oracle says %v",
							stage, v.name, ep.name, ops[i].expr, ops[i].limit, got[k], want[i])
					}
				}
			}
		}
	}
	compare("built")

	// A request a session must refuse is refused with the same sentinel
	// on both client transports, before anything crosses a wire.
	_, errNilExpr := variants[0].store.ExecExprAppend(ctx, nil, nil)
	for _, v := range variants {
		if v.clients == nil {
			continue
		}
		sess, err := v.clients[0].Session(8)
		if err != nil {
			t.Fatalf("%s: session: %v", v.name, err)
		}
		if _, err := sess.AppendExpr(ctx, nil, nil, 0); errNilExpr == nil || !errors.Is(err, errNilExpr) {
			t.Errorf("%s: AppendExpr(nil expr): %v, want %v", v.name, err, errNilExpr)
		}
		if _, err := sess.AppendExpr(ctx, nil, ops[0].expr, -1); !errors.Is(err, setcontain.ErrNegativeLimit) {
			t.Errorf("%s: AppendExpr(limit -1): %v, want ErrNegativeLimit", v.name, err)
		}
		sess.Close()
	}

	// Mutations travel through every transport's own store; ids must
	// match across variants because they share one global id space.
	extra := make([][]setcontain.Item, 20)
	var wantIDs []uint32
	for i := range extra {
		extra[i] = z.SampleDistinct(rng, 1+rng.Intn(6))
		id, err := oracle.d.Add(extra[i])
		if err != nil {
			t.Fatal(err)
		}
		wantIDs = append(wantIDs, id)
	}
	doomed := []uint32{5, 17, uint32(records + 3)}
	for _, id := range doomed {
		oracle.dead[id] = true
	}
	for _, v := range variants {
		ids, err := v.store.InsertSets(extra)
		if err != nil {
			t.Fatalf("%s: inserts: %v", v.name, err)
		}
		if !slices.Equal(ids, wantIDs) {
			t.Fatalf("%s: insert ids %v, want %v", v.name, ids, wantIDs)
		}
		if err := v.store.DeleteIDs(doomed); err != nil {
			t.Fatalf("%s: deletes: %v", v.name, err)
		}
	}
	compare("pending")

	for _, v := range variants {
		if err := v.store.MergeDelta(); err != nil {
			t.Fatalf("%s: merge: %v", v.name, err)
		}
	}
	compare("merged")

	// An ended context must stop every entry point of every transport
	// with that context's own error — Canceled for a canceled one,
	// DeadlineExceeded for an expired one — never a transport artifact
	// and never a silently partial answer.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	expired, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer cancel()
	for _, ended := range []context.Context{canceled, expired} {
		for _, v := range variants {
			for _, ep := range entryPoints {
				var asked []transportOp
				for _, op := range ops {
					if ep.accepts(op) {
						asked = append(asked, op)
					}
				}
				if _, err := ep.run(ended, v, asked); !errors.Is(err, ended.Err()) {
					t.Errorf("%s: %s under an ended context: %v, want %v", v.name, ep.name, err, ended.Err())
				}
			}
			// The same contexts scoping one item of a live batch fail that
			// item alone, and its batchmates answer in full.
			items := make([]setcontain.BatchItem, len(ops))
			for i, op := range ops {
				items[i] = setcontain.BatchItem{Expr: op.expr, Limit: op.limit}
				if i%3 == 0 {
					items[i].Ctx = ended
				}
			}
			if n, err := v.store.ExecBatchAppend(ctx, items); n != len(items) || err != nil {
				t.Fatalf("%s: live batch with ended items stopped after %d of %d: %v", v.name, n, len(items), err)
			}
			for i, it := range items {
				switch {
				case it.Ctx != nil && (!errors.Is(it.Err, ended.Err()) || it.Out != nil):
					t.Errorf("%s: item %d under an ended context: %v, %v; want no answer and %v", v.name, i, it.Out, it.Err, ended.Err())
				case it.Ctx == nil && (it.Err != nil || !slices.Equal(it.Out, oracle.answer(t, ops[i]))):
					t.Errorf("%s: item %d beside ended items: %v, %v; oracle says %v", v.name, i, it.Out, it.Err, oracle.answer(t, ops[i]))
				}
			}
		}
	}
}

// TestTransportConcurrentCancel hammers the HTTP transport from several
// goroutines and cancels mid-stream: every query must either match the
// single-engine answer exactly or fail with context.Canceled — no
// corrupt merges, no hung calls — and a thousand remote calls canceled
// at every point of their life leave no goroutine behind. Run under
// -race this is the concurrency acceptance test for the remote session
// layer.
func TestTransportConcurrentCancel(t *testing.T) {
	const (
		domain  = 40
		shards  = 2
		records = 600
	)
	rng := rand.New(rand.NewSource(13))
	z := dataset.NewZipf(domain, 0.9)
	sets := make([][]setcontain.Item, records)
	for i := range sets {
		sets[i] = z.SampleDistinct(rng, 1+rng.Intn(6))
	}
	variants := buildTransportVariants(t, sets, domain, shards, nil, nil)
	single, remote := variants[0].store, variants[3].store

	queries := make([]setcontain.Query, 120)
	preds := []setcontain.Predicate{setcontain.PredicateSubset, setcontain.PredicateEquality, setcontain.PredicateSuperset}
	for i := range queries {
		queries[i] = setcontain.Query{
			Pred:  preds[rng.Intn(len(preds))],
			Items: z.SampleDistinct(rng, 1+rng.Intn(4)),
		}
	}
	want := make([][]uint32, len(queries))
	for i, q := range queries {
		var err error
		if want[i], err = single.Exec(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}

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
				got, err := remote.Exec(ctx, queries[i])
				switch {
				case errors.Is(err, context.Canceled):
				case err != nil:
					errs <- fmt.Errorf("query %d (%s): %v", i, queries[i], err)
					return
				case !slices.Equal(got, want[i]) && !(len(got) == 0 && len(want[i]) == 0):
					errs <- fmt.Errorf("query %d (%s): got %v want %v", i, queries[i], got, want[i])
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
	if _, err := remote.Exec(ctx, queries[0]); !errors.Is(err, context.Canceled) {
		t.Errorf("post-cancel Exec: %v, want context.Canceled", err)
	}

	// idle hangs up the coordinator's kept-alive connections, whose
	// goroutines (both ends') would otherwise count.
	idle := func() {
		for _, c := range variants[3].clients {
			c.Close()
		}
	}
	idle()
	baseline := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		cctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			q := queries[i%len(queries)]
			got, err := remote.Exec(cctx, q)
			if !errors.Is(err, context.Canceled) && (err != nil || !slices.Equal(got, want[i%len(queries)])) {
				t.Errorf("call %d (%s) racing its cancel: %v, %v; want %v or context.Canceled", i, q, got, err, want[i%len(queries)])
			}
		}()
		// Yield a varying number of times so the cancel lands before the
		// request, on the wire, mid-answer and after it.
		for y := 0; y < i%8; y++ {
			runtime.Gosched()
		}
		cancel()
		<-done
	}
	idle()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > baseline {
		t.Errorf("%d goroutines after 1000 canceled remote calls, %d before them", now, baseline)
	}
}

// TestTransportPartialFailure kills one shard daemon under a live
// coordinator: queries must fail with a ShardError naming the dead
// shard (or the transport error wrapped in it), not hang and not
// silently return partial answers.
func TestTransportPartialFailure(t *testing.T) {
	const (
		domain  = 30
		shards  = 3
		records = 300
	)
	rng := rand.New(rand.NewSource(23))
	z := dataset.NewZipf(domain, 0.8)
	c := setcontain.NewCollection(domain)
	for i := 0; i < records; i++ {
		if _, err := c.Add(z.SampleDistinct(rng, 1+rng.Intn(5))); err != nil {
			t.Fatal(err)
		}
	}
	idx, err := setcontain.New(c, setcontain.WithKind(setcontain.Sharded), setcontain.WithShards(shards),
		setcontain.WithPageSize(512), setcontain.WithBlockPostings(8))
	if err != nil {
		t.Fatal(err)
	}
	servers := make([]*httptest.Server, 0, shards)
	clients := make([]setcontain.ShardClient, 0, shards)
	for _, eng := range setcontain.ShardEngines(idx.Engine()) {
		sidx := setcontain.IndexOver(eng)
		sv := serve.NewServer(sidx, setcontain.NewStore(sidx, 8), serve.Config{})
		ts := httptest.NewServer(sv.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(sv.Close)
		servers = append(servers, ts)
		clients = append(clients, setcontain.NewRemoteShard(ts.URL, nil))
	}
	remote, err := setcontain.ShardedOverClients(context.Background(), clients)
	if err != nil {
		t.Fatal(err)
	}
	store := setcontain.NewStore(remote, 8)

	q := setcontain.SubsetQuery([]setcontain.Item{1})
	if _, err := store.Exec(context.Background(), q); err != nil {
		t.Fatalf("healthy fleet: %v", err)
	}

	servers[1].Close() // shard 1 dies
	_, err = store.Exec(context.Background(), q)
	var se *setcontain.ShardError
	if !errors.As(err, &se) {
		t.Fatalf("dead shard: got %v, want a ShardError", err)
	}
	if se.Shard != 1 {
		t.Fatalf("dead shard misattributed: %v names shard %d, shard 1 died", err, se.Shard)
	}
}

// TestTransportPublicRoutesOnly pins the one-wire property: a
// coordinator is an ordinary client of a shard daemon, and its Store a
// router. Every ShardClient and ShardSession method is driven against a
// daemon whose handler counts the requests it serves; all of them must
// be public routes, and every shard-only route must be gone. Then a
// Store over ShardedOverClients answers leaf, tree and limited requests
// on both sides of a mutation: each costs the shard exactly one POST
// /query and nothing else — no planner state is fetched, ever.
func TestTransportPublicRoutesOnly(t *testing.T) {
	const domain = 16
	c := setcontain.NewCollection(domain)
	for i := 0; i < 60; i++ {
		if _, err := c.Add([]setcontain.Item{uint32(i % domain), uint32((i * 7) % domain)}); err != nil {
			t.Fatal(err)
		}
	}
	shard, err := setcontain.New(c, setcontain.WithKind(setcontain.OIF), setcontain.WithPageSize(512))
	if err != nil {
		t.Fatal(err)
	}
	sv := serve.NewServer(shard, setcontain.NewStore(shard, 8), serve.Config{ChunkIDs: 4})
	var mu sync.Mutex
	served := map[string]int{} // "METHOD path" -> requests
	daemon := sv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		served[r.Method+" "+r.URL.Path]++
		mu.Unlock()
		daemon.ServeHTTP(w, r)
	}))
	// traffic returns the requests served since the last call.
	traffic := func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		got := served
		served = map[string]int{}
		return got
	}
	t.Cleanup(ts.Close)
	t.Cleanup(sv.Close)

	ctx := context.Background()
	must := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	client := setcontain.NewRemoteShard(ts.URL, nil)
	info, err := client.Info(ctx)
	must("Info", err)
	if info.Kind != setcontain.OIF || info.Records != 60 || info.Domain != domain {
		t.Fatalf("Info: %+v, want the OIF shard's 60 records over %d items", info, domain)
	}
	id, err := client.Insert(ctx, []setcontain.Item{1, 2, 3})
	must("Insert", err)
	if id != 61 {
		t.Fatalf("Insert: shard-local id %d, want 61", id)
	}
	must("Delete", client.Delete(ctx, id))
	must("MergeDelta", client.MergeDelta(ctx))
	var snap bytes.Buffer
	must("Snapshot", client.Snapshot(ctx, &snap))
	if _, err := setcontain.Open(&snap); err != nil {
		t.Fatalf("Snapshot: body does not restore: %v", err)
	}
	sess, err := client.Session(0)
	must("Session", err)
	q := setcontain.SubsetQuery([]setcontain.Item{1})
	want, err := shard.Eval(q)
	must("oracle", err)
	got, err := sess.AppendQuery(ctx, nil, q)
	must("AppendQuery", err)
	if !slices.Equal(got, want) || len(want) <= 4 {
		t.Fatalf("AppendQuery: %v, want the multi-chunk answer %v", got, want)
	}
	got, err = sess.AppendExpr(ctx, nil, setcontain.ExprOf(q), 3)
	must("AppendExpr", err)
	if !slices.Equal(got, want[:3]) {
		t.Fatalf("AppendExpr limit 3: %v, want %v", got, want[:3])
	}
	sess.ResetStats()
	_ = sess.Stats()
	must("session Close", sess.Close())

	public := []string{"GET /healthz", "POST /query", "POST /admin/insert", "POST /admin/delete", "POST /admin/merge", "POST /admin/snapshot"}
	direct := traffic()
	for route := range direct {
		if !slices.Contains(public, route) {
			t.Errorf("ShardClient/ShardSession traffic hit %s, outside the daemon's public routes %v", route, public)
		}
	}
	for _, route := range public {
		if direct[route] == 0 {
			t.Errorf("no ShardClient/ShardSession method reached %s", route)
		}
	}

	coord, err := setcontain.ShardedOverClients(ctx, []setcontain.ShardClient{client})
	must("ShardedOverClients", err)
	store := setcontain.NewStore(coord, 8)
	expr, err := setcontain.ParseExpr("subset{1} and not superset{1 8}")
	must("ParseExpr", err)
	traffic() // assembly read /healthz
	routed := func(stage string) {
		t.Helper()
		if ids, err := store.Exec(ctx, q); err != nil || !slices.Equal(ids, want) {
			t.Fatalf("%s: Store.Exec: %v, %v, want %v", stage, ids, err, want)
		}
		if _, err := store.ExecExprAppend(ctx, nil, expr); err != nil {
			t.Fatalf("%s: Store.ExecExprAppend: %v", stage, err)
		}
		if ids, err := store.ExecExprLimitAppend(ctx, nil, expr, 2); err != nil || len(ids) > 2 {
			t.Fatalf("%s: Store.ExecExprLimitAppend: %v, %v, want at most 2 ids", stage, ids, err)
		}
		if got := traffic(); len(got) != 1 || got["POST /query"] != 3 {
			t.Errorf("%s: three Store requests cost the shard %v, want exactly 3 POST /query", stage, got)
		}
	}
	routed("built")
	// A mutation bumps the store's generation; the next requests must
	// not re-fetch anything on its account.
	if _, err := store.InsertSets([][]setcontain.Item{{1, 9}}); err != nil {
		t.Fatalf("Store.InsertSets: %v", err)
	}
	if got := traffic(); len(got) != 1 || got["POST /admin/insert"] != 1 {
		t.Errorf("one insert cost the shard %v, want exactly 1 POST /admin/insert", got)
	}
	want = append(want, 62)
	routed("after an insert")
	must("client Close", client.Close())

	for _, route := range []string{"GET /shard/supports", "POST /shard/info", "POST /shard/query", "POST /shard/insert", "POST /shard/delete", "POST /shard/merge", "POST /shard/snapshot"} {
		method, path, _ := strings.Cut(route, " ")
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader("{}"))
		must(route, err)
		resp, err := http.DefaultClient.Do(req)
		must(route, err)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404 (a shard daemon has no shard-only routes)", route, resp.StatusCode)
		}
	}
}

// answerOracle is the fuzz target's independent reading of a /query
// response to a one-query request: the ids of a well-formed stream
// (every line one Result of at most MaxAnswerLine bytes for query 0, no
// error line, a final line whose count matches), or ok false for
// anything else.
func answerOracle(body []byte) (ids []uint32, ok bool) {
	for {
		var raw []byte
		raw, body, _ = bytes.Cut(body, []byte("\n"))
		var line serve.Result
		if len(raw) > setcontain.MaxAnswerLine || json.Unmarshal(raw, &line) != nil || line.Query != 0 || line.Error != "" {
			return nil, false
		}
		ids = append(ids, line.IDs...)
		if line.Done {
			return ids, line.Count == len(ids)
		}
	}
}

// FuzzRemoteAnswerStream serves arbitrary bytes as the daemon's /query
// response body to a remote session: the call must return an error
// naming the shard or exactly the complete answer — never panic, never
// a silent prefix, never a line buffered past the cap.
func FuzzRemoteAnswerStream(f *testing.F) {
	for _, seed := range []string{
		`{"query":0,"ids":[1,2],"more":true,"count":0}` + "\n" + `{"query":0,"ids":[5],"done":true,"count":3}` + "\n",
		`{"query":0,"done":true,"count":0}` + "\n",
		`{"query":0,"ids":[1,2],"more":true,"count":0}` + "\n",                                                             // truncated after a more line
		`{"query":0,"ids":[1,2],"more":true,"count":0}` + "\n" + `{"query":0,"ids":[5],"do`,                                // truncated mid-line
		`{"query":0,"ids":[1,2],"done":true,"count":3}` + "\n",                                                             // count mismatch
		`{"query":0,"ids":[1],"more":true,"count":0}` + "\n" + `{"query":0,"done":true,"count":0,"error":"boom"}` + "\n",   // error line
		`{"query":1,"ids":[1,2],"done":true,"count":2}` + "\n",                                                             // wrong query index
		`{"query":0,"ids":[` + strings.Repeat("7,", 1<<13) + `7],"done":true,"count":8193}` + "\n",                         // two chunks' worth on one line
		`{"query":0,"ids":[` + strings.Repeat("7,", setcontain.MaxAnswerLine/2) + `7],"done":true,"count":1}` + "\n",       // a line past the cap
		`{"query":0,"more":true,"count":0}` + "\n" + `{"query":0,"ids":[` + strings.Repeat("7,", setcontain.MaxAnswerLine), // a line that never ends
		`{"query":0,"done":true,"count":0}` + strings.Repeat(" ", setcontain.MaxAnswerLine-33),                             // exactly the cap, unterminated
		`{"query":0,"done":true,"count":0}` + strings.Repeat(" ", setcontain.MaxAnswerLine-32) + "\n",                      // one byte past it
		`{"query":0,"more":true,"count":0} {"query":0,"done":true,"count":0}` + "\n",                                       // two values on one line
		`{"query":0,"ids":[-1],"done":true,"count":1}` + "\n",
		"null\n[]\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	var body []byte
	client := setcontain.NewRemoteShard("http://shard.invalid", &http.Client{
		Transport: roundTripFunc(func(*http.Request) (*http.Response, error) {
			return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(bytes.NewReader(body))}, nil
		}),
	})
	sess, err := client.Session(0)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		body = data
		prefix := []uint32{42}
		got, err := sess.AppendQuery(context.Background(), prefix, setcontain.SubsetQuery(nil))
		want, ok := answerOracle(data)
		switch {
		case !ok && err == nil:
			t.Fatalf("malformed stream answered %v without an error", got)
		case !ok && !strings.Contains(err.Error(), "http://shard.invalid"):
			t.Fatalf("malformed stream failed without naming the shard: %v", err)
		case ok && err != nil:
			t.Fatalf("well-formed stream of %d ids failed: %v", len(want), err)
		case ok && !slices.Equal(got, append(prefix, want...)):
			t.Fatalf("answer %v, stream carries %v after dst %v", got, want, prefix)
		}
	})
}

// roundTripFunc is an http.RoundTripper that answers in-process.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }
