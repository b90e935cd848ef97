// Fault injection at the one seam every sharded index has: a decorator
// over ShardClient and ShardSession that can fail or delay any one call,
// or cut a data-plane answer short. The sharded engine talks to built,
// restored and remote shards through those two interfaces alone, so one
// decorator reaches all three.
package setcontain_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/setcontain"
	"repro/setcontain/serve"
)

var errInjected = errors.New("injected shard failure")

// shardFault is what a faultBoard does to the calls it matches.
type shardFault struct {
	// call is the ShardClient or ShardSession method to hit.
	call string
	// shard is the shard to hit, -1 for every shard.
	shard int
	// delay holds the call back this long, or until its ctx ends.
	delay time.Duration
	// fail fails the call with errInjected instead of making it.
	fail bool
	// truncate makes a data-plane call, then returns the first half of
	// its answer together with errInjected.
	truncate bool
}

// faultBoard is the switch the decorated clients of one index share.
type faultBoard struct {
	mu    sync.Mutex
	armed *shardFault
	// held receives a token when a call starts sitting out a delay: how
	// a test knows the call is in flight.
	held chan struct{}
	// calls counts the decorated calls by name since the last tally.
	calls map[string]int
}

// tally returns the calls counted since the previous tally.
func (b *faultBoard) tally() map[string]int {
	b.mu.Lock()
	defer b.mu.Unlock()
	calls := b.calls
	b.calls = nil
	return calls
}

func (b *faultBoard) arm(f shardFault) {
	b.mu.Lock()
	b.armed = &f
	b.held = make(chan struct{}, 1)
	b.mu.Unlock()
}

func (b *faultBoard) disarm() {
	b.mu.Lock()
	b.armed = nil
	b.mu.Unlock()
}

// match returns the armed fault if it hits this call on this shard.
func (b *faultBoard) match(call string, shard int) *shardFault {
	b.mu.Lock()
	defer b.mu.Unlock()
	if f := b.armed; f != nil && f.call == call && (f.shard < 0 || f.shard == shard) {
		return f
	}
	return nil
}

// holding returns the armed fault's held channel.
func (b *faultBoard) holding() chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.held
}

// before counts a call and applies the delay and failure modes ahead of
// it.
func (b *faultBoard) before(ctx context.Context, call string, shard int) error {
	b.mu.Lock()
	if b.calls == nil {
		b.calls = map[string]int{}
	}
	b.calls[call]++
	b.mu.Unlock()
	f := b.match(call, shard)
	if f == nil {
		return nil
	}
	if f.delay > 0 {
		select {
		case b.holding() <- struct{}{}:
		default:
		}
		select {
		case <-time.After(f.delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if f.fail {
		return errInjected
	}
	return nil
}

// after applies the truncation mode to a data-plane answer appended to
// dst[:base].
func (b *faultBoard) after(call string, shard, base int, ids []uint32, err error) ([]uint32, error) {
	if f := b.match(call, shard); f != nil && f.truncate && err == nil {
		return ids[:base+(len(ids)-base)/2], errInjected
	}
	return ids, err
}

// daemon puts the board in front of one shard daemon's handler, so a
// fault named "METHOD /path" delays or fails that request on the far
// side of the wire — with the coordinator's call to it in flight.
func (b *faultBoard) daemon(shard int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// net/http watches for the peer hanging up — which is what ends
		// r.Context() — only once the request body has been read out.
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		if err := b.before(r.Context(), r.Method+" "+r.URL.Path, shard); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// faultyClient decorates one shard's client.
type faultyClient struct {
	setcontain.ShardClient
	board *faultBoard
	shard int
}

func (c *faultyClient) Info(ctx context.Context) (setcontain.ShardInfo, error) {
	if err := c.board.before(ctx, "Info", c.shard); err != nil {
		return setcontain.ShardInfo{}, err
	}
	return c.ShardClient.Info(ctx)
}

func (c *faultyClient) Session(cachePages int) (setcontain.ShardSession, error) {
	if err := c.board.before(context.Background(), "Session", c.shard); err != nil {
		return nil, err
	}
	sess, err := c.ShardClient.Session(cachePages)
	if err != nil {
		return nil, err
	}
	return &faultySession{sess, c.board, c.shard}, nil
}

func (c *faultyClient) Insert(ctx context.Context, set []setcontain.Item) (uint32, error) {
	if err := c.board.before(ctx, "Insert", c.shard); err != nil {
		return 0, err
	}
	return c.ShardClient.Insert(ctx, set)
}

func (c *faultyClient) Delete(ctx context.Context, local uint32) error {
	if err := c.board.before(ctx, "Delete", c.shard); err != nil {
		return err
	}
	return c.ShardClient.Delete(ctx, local)
}

func (c *faultyClient) MergeDelta(ctx context.Context) error {
	if err := c.board.before(ctx, "MergeDelta", c.shard); err != nil {
		return err
	}
	return c.ShardClient.MergeDelta(ctx)
}

func (c *faultyClient) Snapshot(ctx context.Context, w io.Writer) error {
	if err := c.board.before(ctx, "Snapshot", c.shard); err != nil {
		return err
	}
	return c.ShardClient.Snapshot(ctx, w)
}

// faultySession decorates one data-plane session of a faultyClient.
type faultySession struct {
	setcontain.ShardSession
	board *faultBoard
	shard int
}

func (s *faultySession) AppendQuery(ctx context.Context, dst []uint32, q setcontain.Query) ([]uint32, error) {
	if err := s.board.before(ctx, "AppendQuery", s.shard); err != nil {
		return nil, err
	}
	ids, err := s.ShardSession.AppendQuery(ctx, dst, q)
	return s.board.after("AppendQuery", s.shard, len(dst), ids, err)
}

func (s *faultySession) AppendExpr(ctx context.Context, dst []uint32, expr *setcontain.Expr, limit int) ([]uint32, error) {
	if err := s.board.before(ctx, "AppendExpr", s.shard); err != nil {
		return nil, err
	}
	ids, err := s.ShardSession.AppendExpr(ctx, dst, expr, limit)
	return s.board.after("AppendExpr", s.shard, len(dst), ids, err)
}

// TestShardedInsertFailureKeepsRouting is the regression test for the
// round-robin counter bug: a failed shard Insert must not advance the
// partition counter, or every subsequent record lands on the wrong
// shard and the global-id ↔ shard mapping drifts. After the injected
// failure clears, inserts must resume with the exact ids and placement
// a never-failing engine produces.
func TestShardedInsertFailureKeepsRouting(t *testing.T) {
	const domain = 30
	rng := rand.New(rand.NewSource(71))
	z := dataset.NewZipf(domain, 0.8)
	c := setcontain.NewCollection(domain)
	for i := 0; i < 300; i++ {
		if _, err := c.Add(z.SampleDistinct(rng, 1+rng.Intn(8))); err != nil {
			t.Fatal(err)
		}
	}
	build := func() *setcontain.Index {
		idx, err := setcontain.New(c, setcontain.WithKind(setcontain.Sharded), setcontain.WithShards(3),
			setcontain.WithPageSize(512), setcontain.WithBlockPostings(8))
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	reference, victim := build(), build()
	board := &faultBoard{}
	setcontain.WrapShardClients(victim, func(s int, c setcontain.ShardClient) setcontain.ShardClient {
		return &faultyClient{c, board, s}
	})

	insertBoth := func(set []setcontain.Item) {
		t.Helper()
		want, err := reference.Insert(set)
		if err != nil {
			t.Fatal(err)
		}
		got, err := victim.Insert(set)
		if err != nil {
			t.Fatalf("victim insert: %v", err)
		}
		if got != want {
			t.Fatalf("insert id drifted after failure: got %d, want %d", got, want)
		}
	}
	insertBoth([]setcontain.Item{1, 2})
	insertBoth([]setcontain.Item{2, 3})

	// Arm every shard: the next victim insert fails wherever it routes.
	board.arm(shardFault{call: "Insert", shard: -1, fail: true})
	for i := 0; i < 3; i++ {
		if _, err := victim.Insert([]setcontain.Item{4, 5}); !errors.Is(err, errInjected) {
			t.Fatalf("armed insert %d: got %v, want injected failure", i, err)
		}
	}
	board.disarm()

	// Routing must resume exactly where it left off.
	insertBoth([]setcontain.Item{4, 5})
	insertBoth([]setcontain.Item{5, 6})
	insertBoth([]setcontain.Item{6, 7})

	preds := []setcontain.Predicate{setcontain.PredicateSubset, setcontain.PredicateEquality, setcontain.PredicateSuperset}
	for i := 0; i < 60; i++ {
		q := setcontain.Query{Pred: preds[rng.Intn(len(preds))], Items: z.SampleDistinct(rng, 1+rng.Intn(5))}
		want, err := reference.Eval(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := victim.Eval(q)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: answers diverged after injected failure: %v vs %v", q, got, want)
		}
	}
}

// TestShardFaults drives every ShardClient and ShardSession call into a
// fault, on each of the three ways a sharded index comes to be — built
// by New, assembled over in-process clients, assembled over HTTP clients
// of live daemons. Whatever the fault, a query answers completely (the
// oracle's ids) or fails, on the data plane with a ShardError naming the
// shard, and never returns a prefix; a failed mutation leaves the
// counts, the routing and the next query's answer where they were.
func TestShardFaults(t *testing.T) {
	const (
		domain  = 32
		shards  = 3
		records = 240
		victim  = 1 // the shard the single-shard faults hit
	)
	rng := rand.New(rand.NewSource(29))
	z := dataset.NewZipf(domain, 0.9)
	sets := make([][]setcontain.Item, records)
	for i := range sets {
		sets[i] = z.SampleDistinct(rng, 1+rng.Intn(6))
	}
	var ops []transportOp
	preds := []setcontain.Predicate{setcontain.PredicateSubset, setcontain.PredicateEquality, setcontain.PredicateSuperset}
	for i := 0; i < 9; i++ {
		ops = append(ops, transportOp{expr: setcontain.ExprOf(setcontain.Query{
			Pred: preds[i%len(preds)], Items: z.SampleDistinct(rng, 1+rng.Intn(3)),
		})})
	}
	for i := 0; i < 6; i++ {
		e, err := setcontain.ParseExpr(randomExprText(rng, z))
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, transportOp{expr: e, limit: (i % 3) * 4}) // 0 = unlimited
	}
	leaf, _ := ops[0].expr.AsQuery()
	tree := ops[len(ops)-1].expr
	// multi is a tree of four leaves whatever the random draw, a NOT
	// among them: what Index.EvalExpr must push down whole.
	multi := transportOp{expr: setcontain.And(setcontain.Or(ops[0].expr, ops[1].expr), setcontain.Not(ops[2].expr), ops[3].expr)}

	boards := map[string]*faultBoard{"sharded": {}, "inproc": {}, "http": {}}
	variants := buildTransportVariants(t, sets, domain, shards,
		func(variant string, s int, c setcontain.ShardClient) setcontain.ShardClient {
			return &faultyClient{c, boards[variant], s}
		}, boards["http"].daemon)

	ctx := context.Background()
	// outcome says what a case's drive must come to: fail, succeed, or
	// either (a race against a deadline) — a success is always checked
	// against the oracle by the drive itself.
	type outcome int
	const (
		mustFail outcome = iota
		mustSucceed
		either
	)
	type faultCase struct {
		fault shardFault
		want  outcome
		// shardErr demands a ShardError naming the victim.
		shardErr bool
		drive    func(v *transportVariant, o *naiveOracle) error
	}
	// A merge is per shard: when one shard fails it, the healthy ones
	// did fold their pending inserts.
	foldsPending := func(c faultCase) bool { return c.fault.call == "Info" || c.fault.call == "MergeDelta" }
	// answered runs op through the store and holds a success to the oracle.
	answered := func(ctx context.Context, v *transportVariant, o *naiveOracle, op transportOp) error {
		got, err := v.store.ExecExprLimitAppend(ctx, nil, op.expr, op.limit)
		if err == nil && !slices.Equal(got, o.answer(t, op)) {
			t.Errorf("%s: %s limit %d answered %v without an error, oracle says %v",
				v.name, op.expr, op.limit, got, o.answer(t, op))
		}
		return err
	}
	query := func(op transportOp) func(*transportVariant, *naiveOracle) error {
		return func(v *transportVariant, o *naiveOracle) error { return answered(ctx, v, o, op) }
	}
	underDeadline := func(op transportOp) func(*transportVariant, *naiveOracle) error {
		return func(v *transportVariant, o *naiveOracle) error {
			dctx, cancel := context.WithTimeout(ctx, time.Millisecond)
			defer cancel()
			return answered(dctx, v, o, op)
		}
	}
	// itemDeadline sends op twice in one batch under a live batch ctx: the
	// first item's own ctx expires while the victim sits out its delay and
	// must fail with that ctx's error; its batchmate waits the delay out
	// and must be answered in full.
	itemDeadline := func(op transportOp) func(*transportVariant, *naiveOracle) error {
		return func(v *transportVariant, o *naiveOracle) error {
			dctx, cancel := context.WithTimeout(ctx, time.Millisecond)
			defer cancel()
			items := []setcontain.BatchItem{
				{Ctx: dctx, Expr: op.expr, Limit: op.limit},
				{Expr: op.expr, Limit: op.limit},
			}
			if n, err := v.store.ExecBatchAppend(ctx, items); n != len(items) || err != nil {
				return fmt.Errorf("batch stopped after %d of %d items: %v", n, len(items), err)
			}
			if mate := items[1]; mate.Err != nil || !slices.Equal(mate.Out, o.answer(t, op)) {
				t.Errorf("%s: batchmate of an expired item got %v, %v; oracle says %v", v.name, mate.Out, mate.Err, o.answer(t, op))
			}
			if err := items[0].Err; !errors.Is(err, context.DeadlineExceeded) || items[0].Out != nil {
				t.Errorf("%s: expired item got %v, %v; want no answer and its own ctx's DeadlineExceeded", v.name, items[0].Out, err)
			}
			return items[0].Err
		}
	}
	// batchClosed closes a batcher while its one request is in flight on
	// the victim: the batch ctx is all that can end the shard calls, and
	// Close must not have to wait the delay out.
	batchClosed := func(op transportOp) func(*transportVariant, *naiveOracle) error {
		return func(v *transportVariant, _ *naiveOracle) error {
			b := serve.NewBatcher(v.store, serve.Config{})
			failed := make(chan error, 1)
			go func() {
				ids, err := b.DoExprLimit(ctx, nil, op.expr, op.limit)
				if !errors.Is(err, serve.ErrClosed) && !errors.Is(err, context.Canceled) {
					t.Errorf("%s: request in flight at Close got %v, %v; want ErrClosed or the batch ctx's Canceled", v.name, ids, err)
				}
				failed <- err
			}()
			<-boards[v.name].holding()
			start := time.Now()
			b.Close()
			if took := time.Since(start); took > time.Second {
				t.Errorf("%s: Batcher.Close took %v with a shard call in flight: the batch ctx did not end it", v.name, took)
			}
			return <-failed
		}
	}
	plainOp, treeOp := transportOp{expr: setcontain.ExprOf(leaf)}, transportOp{expr: tree, limit: 5}
	cases := []faultCase{
		{shardFault{call: "Info", shard: victim, fail: true}, mustFail, false,
			func(v *transportVariant, _ *naiveOracle) error { return v.store.MergeDelta() }},
		{shardFault{call: "Session", shard: victim, fail: true}, mustFail, true, query(plainOp)},
		{shardFault{call: "AppendQuery", shard: victim, fail: true}, mustFail, true, query(plainOp)},
		{shardFault{call: "AppendQuery", shard: victim, truncate: true}, mustFail, true, query(plainOp)},
		{shardFault{call: "AppendQuery", shard: victim, delay: 20 * time.Millisecond}, either, false, underDeadline(plainOp)},
		{shardFault{call: "AppendQuery", shard: victim, fail: true}, mustFail, true,
			func(v *transportVariant, _ *naiveOracle) error { _, err := v.idx.Eval(leaf); return err }},
		{shardFault{call: "AppendExpr", shard: victim, fail: true}, mustFail, true,
			func(v *transportVariant, _ *naiveOracle) error { _, err := v.idx.EvalExpr(multi.expr); return err }},
		{shardFault{call: "AppendExpr", shard: victim, fail: true}, mustFail, true, query(treeOp)},
		{shardFault{call: "AppendExpr", shard: victim, truncate: true}, mustFail, true, query(treeOp)},
		{shardFault{call: "AppendExpr", shard: victim, delay: 20 * time.Millisecond}, either, false, underDeadline(treeOp)},
		// Cancellation is the call's ctx and nothing else: an item's own,
		// the batch's, or the scatter's when a sibling fails while the
		// in-process shards beside it are evaluating.
		{shardFault{call: "AppendQuery", shard: victim, delay: 20 * time.Millisecond}, mustFail, false, itemDeadline(plainOp)},
		{shardFault{call: "AppendExpr", shard: victim, delay: 20 * time.Millisecond}, mustFail, false, itemDeadline(treeOp)},
		{shardFault{call: "AppendQuery", shard: victim, delay: time.Minute}, mustFail, false, batchClosed(plainOp)},
		{shardFault{call: "AppendExpr", shard: victim, delay: time.Minute}, mustFail, false, batchClosed(treeOp)},
		{shardFault{call: "POST /query", shard: victim, delay: time.Minute}, mustFail, false, batchClosed(treeOp)},
		{shardFault{call: "AppendExpr", shard: victim, delay: time.Millisecond, fail: true}, mustFail, true, query(treeOp)},
		{shardFault{call: "Insert", shard: -1, fail: true}, mustFail, false,
			func(v *transportVariant, _ *naiveOracle) error {
				_, err := v.store.InsertSets([][]setcontain.Item{{1, 2, 3}})
				return err
			}},
		{shardFault{call: "Insert", shard: -1, delay: time.Millisecond}, mustSucceed, false,
			func(v *transportVariant, o *naiveOracle) error {
				want, err := o.d.Add([]setcontain.Item{2, 4})
				if err != nil {
					return err
				}
				ids, err := v.store.InsertSets([][]setcontain.Item{{2, 4}})
				if err == nil && !slices.Equal(ids, []uint32{want}) {
					err = fmt.Errorf("delayed insert got ids %v, want %d", ids, want)
				}
				return err
			}},
		{shardFault{call: "Delete", shard: -1, fail: true}, mustFail, false,
			func(v *transportVariant, _ *naiveOracle) error { return v.store.DeleteIDs([]uint32{7}) }},
		{shardFault{call: "MergeDelta", shard: victim, fail: true}, mustFail, false,
			func(v *transportVariant, _ *naiveOracle) error { return v.store.MergeDelta() }},
		{shardFault{call: "Snapshot", shard: victim, fail: true}, mustFail, false,
			func(v *transportVariant, _ *naiveOracle) error { return v.idx.Save(io.Discard) }},
	}

	for _, v := range variants {
		board := boards[v.name]
		if board == nil {
			continue // the single engine has no shards to fault
		}
		oracle := &naiveOracle{d: dataset.New(domain), dead: map[uint32]bool{}}
		for _, s := range sets {
			if _, err := oracle.d.Add(s); err != nil {
				t.Fatal(err)
			}
		}
		// settled holds the healthy index to the oracle: every op's
		// answer, the record counts, and — by inserting and deleting one
		// more record — the routing of the next global id.
		settled := func(stage string) {
			t.Helper()
			set := z.SampleDistinct(rng, 1+rng.Intn(4))
			want, err := oracle.d.Add(set)
			if err != nil {
				t.Fatal(err)
			}
			ids, err := v.store.InsertSets([][]setcontain.Item{set})
			if err != nil || !slices.Equal(ids, []uint32{want}) {
				t.Fatalf("%s: %s: insert got ids %v, %v; want id %d", v.name, stage, ids, err, want)
			}
			doomed := want - uint32(shards) // a record on the same shard
			if err := v.store.DeleteIDs([]uint32{doomed}); err != nil {
				t.Fatalf("%s: %s: delete of %d: %v", v.name, stage, doomed, err)
			}
			oracle.dead[doomed] = true
			if got, want := v.idx.NumRecords(), oracle.d.Len(); got != want {
				t.Fatalf("%s: %s: %d records, want %d", v.name, stage, got, want)
			}
			if got, want := v.idx.Deleted(), len(oracle.dead); got != want {
				t.Fatalf("%s: %s: %d tombstones, want %d", v.name, stage, got, want)
			}
			for _, op := range ops {
				if err := answered(ctx, v, oracle, op); err != nil {
					t.Fatalf("%s: %s: %s limit %d: %v", v.name, stage, op.expr, op.limit, err)
				}
				if leafOp(op) {
					q, _ := op.expr.AsQuery()
					got, err := v.idx.Eval(q)
					if err != nil || !slices.Equal(got, oracle.answer(t, op)) {
						t.Fatalf("%s: %s: Index.Eval(%s): %v, %v; oracle says %v", v.name, stage, q, got, err, oracle.answer(t, op))
					}
				}
			}
		}
		settled("built")
		// One fan-out: the engine-level expression form is a push-down like
		// the Store's — the whole tree to every shard once, no leaf scatter.
		board.tally()
		got, err := v.idx.EvalExpr(multi.expr)
		if err != nil || !slices.Equal(got, oracle.answer(t, multi)) {
			t.Fatalf("%s: Index.EvalExpr(%s): %v, %v; oracle says %v", v.name, multi.expr, got, err, oracle.answer(t, multi))
		}
		if calls := board.tally(); calls["AppendExpr"] != shards || calls["AppendQuery"] != 0 {
			t.Fatalf("%s: Index.EvalExpr(%s) cost %d AppendExpr and %d AppendQuery calls, want %d and 0",
				v.name, multi.expr, calls["AppendExpr"], calls["AppendQuery"], shards)
		}
		for _, c := range cases {
			if c.fault.call == "POST /query" && v.name != "http" {
				continue // only the HTTP stack has a far side of the wire
			}
			name := fmt.Sprintf("%s on shard %d (%+v)", c.fault.call, c.fault.shard, c.fault)
			records, pending, deleted := v.idx.NumRecords(), v.idx.PendingInserts(), v.idx.Deleted()
			v.store.Refresh() // the fault must meet a fresh reader and support profile
			board.arm(c.fault)
			err := c.drive(v, oracle)
			board.disarm()
			switch {
			case c.want == mustFail && err == nil:
				t.Fatalf("%s: %s: succeeded, want an error", v.name, name)
			case c.want == mustSucceed && err != nil:
				t.Fatalf("%s: %s: %v, want success", v.name, name, err)
			}
			if c.shardErr {
				var se *setcontain.ShardError
				if !errors.As(err, &se) || se.Shard != victim {
					t.Fatalf("%s: %s: error %v does not name shard %d in a ShardError", v.name, name, err, victim)
				}
			}
			if c.want == mustFail {
				r, p, d := v.idx.NumRecords(), v.idx.PendingInserts(), v.idx.Deleted()
				if foldsPending(c) {
					p = pending
				}
				if r != records || p != pending || d != deleted {
					t.Fatalf("%s: %s: failed call moved the counts: records %d→%d, pending %d→%d, deleted %d→%d",
						v.name, name, records, r, pending, p, deleted, d)
				}
			}
			v.store.Refresh()
			settled("after " + name)
		}
	}
}
