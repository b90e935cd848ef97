// Fault injection at the one seam every sharded index has: a decorator
// over ShardClient and ShardSession that can fail or delay one call, or
// cut a data-plane answer short. The sharded engine talks to built,
// restored and remote shards through those two interfaces alone, so one
// decorator reaches all three; FuzzModel arms it between steps.
package setcontain_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/setcontain"
	"repro/setcontain/serve"
)

var errInjected = errors.New("injected shard failure")

// shardFault is what a faultBoard does to the one call it hits.
type shardFault struct {
	// call is the ShardClient or ShardSession method to hit, or
	// "METHOD /path" for a request reaching a shard daemon.
	call string
	// shard is the shard to hit, -1 for any shard.
	shard int
	// skip lets that many matching calls through first: the fault hits
	// call skip+1, and only that one.
	skip int
	// delay holds the call back this long, or until its ctx ends.
	delay time.Duration
	// fail fails the call with errInjected instead of making it.
	fail bool
	// truncate makes a data-plane call, then returns the first half of
	// its answer together with errInjected.
	truncate bool
	// lie, when not 0, has a shard daemon's /query answer lie (see tell).
	lie int
}

// cut applies the truncation mode of f (nil: none) to a data-plane
// answer appended to dst[:base].
func (f *shardFault) cut(base int, ids []uint32, err error) ([]uint32, error) {
	if f != nil && f.truncate && err == nil {
		return ids[:base+(len(ids)-base)/2], errInjected
	}
	return ids, err
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
	// fired counts the faults that hit a call.
	fired int
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

// firedCount returns how many faults have hit a call.
func (b *faultBoard) firedCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fired
}

// holding returns the armed fault's held channel.
func (b *faultBoard) holding() chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.held
}

// before counts a call and, when the armed fault hits it, applies the
// delay and failure modes ahead of it. It returns the fault that hit.
func (b *faultBoard) before(ctx context.Context, call string, shard int) (*shardFault, error) {
	b.mu.Lock()
	if b.calls == nil {
		b.calls = map[string]int{}
	}
	b.calls[call]++
	f, held := b.armed, b.held
	if f == nil || f.call != call || (f.shard >= 0 && f.shard != shard) {
		f = nil
	} else if f.skip > 0 {
		f.skip--
		f = nil
	} else {
		b.armed = nil
		b.fired++
	}
	b.mu.Unlock()
	if f == nil {
		return nil, nil
	}
	if f.delay > 0 {
		select {
		case held <- struct{}{}:
		default:
		}
		select {
		case <-time.After(f.delay):
		case <-ctx.Done():
			return f, ctx.Err()
		}
	}
	if f.fail {
		return f, errInjected
	}
	return f, nil
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
		if _, err := b.before(r.Context(), r.Method+" "+r.URL.Path, shard); err != nil {
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
	if _, err := c.board.before(ctx, "Info", c.shard); err != nil {
		return setcontain.ShardInfo{}, err
	}
	return c.ShardClient.Info(ctx)
}

func (c *faultyClient) Session(cachePages int) (setcontain.ShardSession, error) {
	if _, err := c.board.before(context.Background(), "Session", c.shard); err != nil {
		return nil, err
	}
	sess, err := c.ShardClient.Session(cachePages)
	if err != nil {
		return nil, err
	}
	return &faultySession{sess, c.board, c.shard}, nil
}

func (c *faultyClient) Insert(ctx context.Context, set []setcontain.Item) (uint32, error) {
	if _, err := c.board.before(ctx, "Insert", c.shard); err != nil {
		return 0, err
	}
	return c.ShardClient.Insert(ctx, set)
}

func (c *faultyClient) Delete(ctx context.Context, local uint32) error {
	if _, err := c.board.before(ctx, "Delete", c.shard); err != nil {
		return err
	}
	return c.ShardClient.Delete(ctx, local)
}

func (c *faultyClient) MergeDelta(ctx context.Context) error {
	if _, err := c.board.before(ctx, "MergeDelta", c.shard); err != nil {
		return err
	}
	return c.ShardClient.MergeDelta(ctx)
}

func (c *faultyClient) Snapshot(ctx context.Context, w io.Writer) error {
	if _, err := c.board.before(ctx, "Snapshot", c.shard); err != nil {
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
	f, err := s.board.before(ctx, "AppendQuery", s.shard)
	if err != nil {
		return nil, err
	}
	ids, err := s.ShardSession.AppendQuery(ctx, dst, q)
	return f.cut(len(dst), ids, err)
}

func (s *faultySession) AppendExpr(ctx context.Context, dst []uint32, expr *setcontain.Expr, limit int) ([]uint32, error) {
	f, err := s.board.before(ctx, "AppendExpr", s.shard)
	if err != nil {
		return nil, err
	}
	ids, err := s.ShardSession.AppendExpr(ctx, dst, expr, limit)
	return f.cut(len(dst), ids, err)
}

// TestShardFaults holds what FuzzModel's answers cannot show, on each
// of the three ways a sharded index comes to be — built by New,
// assembled over in-process clients, assembled over HTTP clients of
// live daemons: the engine-level expression form is a push-down (the
// whole tree to every shard once, no leaf scatter), and a containment
// query travels the same way, as its one-leaf expression; a call delayed past
// its deadline answers exactly or fails with DeadlineExceeded; and a
// Batcher closed while its one request is held on a shard returns at
// once and refuses later calls, while the request ends under its own
// ctx.
func TestShardFaults(t *testing.T) {
	h := newHarness(t, 29)
	defer h.close()
	ctx := context.Background()
	leaf := setcontain.SubsetQuery([]setcontain.Item{1})
	tree, err := setcontain.ParseExpr("(subset{1} or superset{2 3}) and not equality{4} and subset{0}")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Sharded", "inproc", "http"} {
		tg := h.target(name)
		want, _ := tg.m.answer(&modelOp{expr: tree})
		for _, e := range []*setcontain.Expr{tree, setcontain.ExprOf(leaf)} {
			want, _ := tg.m.answer(&modelOp{expr: e})
			tg.board.tally()
			got, err := tg.idx.EvalExprLimit(e, 0)
			if err != nil || !slices.Equal(got, want) {
				t.Fatalf("%s: Index.EvalExprLimit(%s): %v, %v; the model says %v", name, e, got, err, want)
			}
			if calls := tg.board.tally(); calls["AppendExpr"] != shardsOf(29) || calls["AppendQuery"] != 0 {
				t.Fatalf("%s: Index.EvalExprLimit(%s) cost %d AppendExpr and %d AppendQuery calls, want %d and 0",
					name, e, calls["AppendExpr"], calls["AppendQuery"], shardsOf(29))
			}
		}

		tg.board.arm(shardFault{call: "AppendExpr", shard: 1, delay: 20 * time.Millisecond})
		dctx, cancel := context.WithTimeout(ctx, time.Millisecond)
		got, err := tg.store.ExecExprLimitAppend(dctx, nil, tree, 0)
		cancel()
		if err == nil && !slices.Equal(got, want) || err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: a shard call delayed past the deadline: %v, %v; want %v or DeadlineExceeded", name, got, err, want)
		}

		// A leaf reaches a shard as AppendExpr too: it is held there.
		calls := []string{"AppendExpr", "AppendExpr"}
		exprs := []*setcontain.Expr{setcontain.ExprOf(leaf), tree}
		if name == "http" {
			calls, exprs = append(calls, "POST /query"), append(exprs, tree)
		}
		for i, call := range calls {
			e := exprs[i]
			b := serve.NewBatcher(tg.store, serve.Config{})
			tg.board.arm(shardFault{call: call, shard: 1, delay: time.Minute})
			rctx, cancel := context.WithCancel(ctx)
			failed := make(chan error, 1)
			go func() {
				_, err := b.DoExprLimit(rctx, nil, e, 0)
				failed <- err
			}()
			select {
			case <-tg.board.holding():
			case <-time.After(10 * time.Second):
				cancel()
				t.Fatalf("%s: %s of %s was never reached", name, call, e)
			}
			start := time.Now()
			b.Close()
			if took := time.Since(start); took > time.Second {
				t.Errorf("%s: %s held: Batcher.Close took %v", name, call, took)
			}
			if _, err := b.DoExprLimit(ctx, nil, e, 0); !errors.Is(err, serve.ErrClosed) {
				t.Errorf("%s: %s held: call after Close got %v, want ErrClosed", name, call, err)
			}
			cancel()
			if err := <-failed; !errors.Is(err, context.Canceled) {
				t.Errorf("%s: %s held: the request in flight at Close got %v, want its ctx's Canceled", name, call, err)
			}
			tg.board.disarm()
		}
	}
}
