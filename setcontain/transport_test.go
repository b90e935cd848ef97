// The shard transport beyond what FuzzModel's answers hold: concurrent
// cancellation, a dead shard daemon, the public routes a coordinator
// uses, and the NDJSON answer reader under arbitrary bytes.
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
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/wire"
	"repro/setcontain"
	"repro/setcontain/serve"
)

// cancelMidFlight hammers the named targets of seed's harness from
// several goroutines and cancels mid-stream: every query must either
// answer exactly what the model says or fail with context.Canceled — no
// corrupt merges, no hung calls — and calls after the cancel must fail.
// It returns the harness, its queries and their answers.
func cancelMidFlight(t *testing.T, seed int64, targets ...string) (*harness, []setcontain.Query, [][]uint32) {
	h := newHarness(t, seed, targets...)
	t.Cleanup(h.close)
	rng := rand.New(rand.NewSource(seed))
	z := dataset.NewZipf(modelDomain, 0.9)
	queries := make([]setcontain.Query, 120)
	want := make([][]uint32, len(queries))
	for i := range queries {
		op := randQuery(rng, z, plainShape)
		queries[i], _ = op.expr.AsQuery()
		want[i], _ = h.targets[0].m.answer(&op)
	}
	for _, tg := range h.targets {
		ctx, cancel := context.WithCancel(context.Background())
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
					got, err := tg.store.Exec(ctx, queries[i])
					switch {
					case errors.Is(err, context.Canceled):
					case err != nil:
						errs <- fmt.Errorf("%s: query %d (%s): %v", tg.name, i, queries[i], err)
						return
					case !slices.Equal(got, want[i]):
						errs <- fmt.Errorf("%s: query %d (%s): got %v want %v", tg.name, i, queries[i], got, want[i])
						return
					}
				}
			}(g)
		}
		wg.Wait()
		cancel()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		if _, err := tg.store.Exec(ctx, queries[0]); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: post-cancel Exec: %v, want context.Canceled", tg.name, err)
		}
	}
	return h, queries, want
}

// TestStoreCancelMidFlight cancels parallel Exec calls on a Store over
// each single engine and over a Durable.
func TestStoreCancelMidFlight(t *testing.T) {
	cancelMidFlight(t, 13, "OIF", "IF", "UBT", "durable")
}

// TestShardedStoreParallelCancel cancels parallel Exec calls on a Store
// over a sharded index and over a coordinator of in-process clients;
// under -race this exercises the interrupt reaching every shard.
func TestShardedStoreParallelCancel(t *testing.T) {
	cancelMidFlight(t, 13, "Sharded", "inproc")
}

// TestTransportConcurrentCancel cancels parallel Exec calls on a
// coordinator over shard daemons, then a thousand remote calls canceled
// at every point of their life must leave no goroutine behind. Run
// under -race this is the concurrency acceptance test for the remote
// session layer.
func TestTransportConcurrentCancel(t *testing.T) {
	h, queries, want := cancelMidFlight(t, 13, "http")
	tg := h.target("http")
	remote := tg.store
	// idle hangs up the coordinator's kept-alive connections, whose
	// goroutines (both ends') would otherwise count.
	idle := func() {
		for _, c := range tg.clients {
			c.Close()
		}
		tg.hc.CloseIdleConnections()
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
	want, err := q.Eval(shard)
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
	// What a session must refuse, both transports refuse alike, before
	// anything crosses a wire.
	for _, c := range []setcontain.ShardClient{client, setcontain.InprocShard(shard.Engine())} {
		s, err := c.Session(0)
		must("Session", err)
		if _, err := s.AppendExpr(ctx, nil, nil, 0); err == nil {
			t.Errorf("%T: AppendExpr(nil expr) succeeded", c)
		}
		if _, err := s.AppendExpr(ctx, nil, setcontain.ExprOf(q), -1); !errors.Is(err, setcontain.ErrNegativeLimit) {
			t.Errorf("%T: AppendExpr(limit -1): %v, want ErrNegativeLimit", c, err)
		}
		if _, err := s.AppendQuery(ctx, nil, setcontain.Query{Pred: 9}); !errors.Is(err, setcontain.ErrUnknownPredicate) {
			t.Errorf("%T: AppendQuery(predicate 9): %v, want ErrUnknownPredicate", c, err)
		}
	}

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

// TestSessionsRefuseMalformedExprAlike: a leaf of an unknown predicate
// and an AND of one child are malformed, and a remote session refuses
// them with the in-process session's errors, before any request reaches
// its daemon.
func TestSessionsRefuseMalformedExprAlike(t *testing.T) {
	c := setcontain.NewCollection(8)
	for i := 0; i < 20; i++ {
		if _, err := c.Add([]setcontain.Item{uint32(i % 8), uint32((i * 3) % 8)}); err != nil {
			t.Fatal(err)
		}
	}
	idx, err := setcontain.New(c, setcontain.WithKind(setcontain.OIF))
	if err != nil {
		t.Fatal(err)
	}
	sv := serve.NewServer(idx, setcontain.NewStore(idx, 8), serve.Config{})
	t.Cleanup(sv.Close)
	var mu sync.Mutex
	var served []string
	daemon := sv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		served = append(served, r.Method+" "+r.URL.Path)
		mu.Unlock()
		daemon.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	inproc, err := setcontain.InprocShard(idx.Engine()).Session(0)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := setcontain.NewRemoteShard(ts.URL, nil).Session(0)
	if err != nil {
		t.Fatal(err)
	}
	leaf := setcontain.ExprOf(setcontain.SubsetQuery([]setcontain.Item{1}))
	for _, bad := range []*setcontain.Expr{
		setcontain.ExprOf(setcontain.Query{Pred: 7, Items: []setcontain.Item{1}}),
		{Op: setcontain.OpAnd, Kids: []*setcontain.Expr{leaf}},
	} {
		ctx := context.Background()
		_, want := inproc.AppendExpr(ctx, nil, bad, 0)
		if want == nil {
			t.Fatalf("in-process session answered %#v", bad)
		}
		_, got := remote.AppendExpr(ctx, nil, bad, 0)
		if got == nil || got.Error() != want.Error() ||
			errors.Is(want, setcontain.ErrUnknownPredicate) != errors.Is(got, setcontain.ErrUnknownPredicate) {
			t.Errorf("remote session: %v; the in-process session refuses with %v", got, want)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(served) != 0 {
		t.Errorf("the daemon served %v for malformed expressions", served)
	}
}

// answerOracle is the fuzz target's independent reading of a /query
// response to a one-query request: the ids of a well-formed stream
// (every line one Result of at most wire.MaxLineBytes bytes for query 0, no
// error line, ids ascending from 1 across lines, a final line whose
// count matches), or ok false for anything else.
func answerOracle(body []byte) (ids []uint32, ok bool) {
	for {
		var raw []byte
		raw, body, _ = bytes.Cut(body, []byte("\n"))
		var line serve.Result
		if len(raw) > wire.MaxLineBytes || json.Unmarshal(raw, &line) != nil || line.Query != 0 || line.Error != "" {
			return nil, false
		}
		for _, id := range line.IDs {
			if id == 0 || len(ids) > 0 && id <= ids[len(ids)-1] {
				return nil, false
			}
			ids = append(ids, id)
		}
		if line.Done {
			return ids, line.Count == len(ids)
		}
	}
}

// FuzzRemoteAnswerStream serves arbitrary bytes as the daemon's /query
// response body to a remote session: the call must return an error
// naming the shard or exactly the complete answer — never panic, never
// a silent prefix, never ids out of order, never a line buffered past
// the cap.
func FuzzRemoteAnswerStream(f *testing.F) {
	for _, seed := range []string{
		`{"query":0,"ids":[1,2],"more":true,"count":0}` + "\n" + `{"query":0,"ids":[5],"done":true,"count":3}` + "\n",
		`{"query":0,"done":true,"count":0}` + "\n",
		`{"query":0,"ids":[1,2],"more":true,"count":0}` + "\n",                                                           // truncated after a more line
		`{"query":0,"ids":[1,2],"more":true,"count":0}` + "\n" + `{"query":0,"ids":[5],"do`,                              // truncated mid-line
		`{"query":0,"ids":[1,2],"done":true,"count":3}` + "\n",                                                           // count mismatch
		`{"query":0,"ids":[1],"more":true,"count":0}` + "\n" + `{"query":0,"done":true,"count":0,"error":"boom"}` + "\n", // error line
		`{"query":1,"ids":[1,2],"done":true,"count":2}` + "\n",                                                           // wrong query index
		`{"query":0,"ids":[` + strings.Repeat("7,", 1<<13) + `7],"done":true,"count":8193}` + "\n",                       // two chunks' worth on one line
		`{"query":0,"ids":[` + strings.Repeat("7,", wire.MaxLineBytes/2) + `7],"done":true,"count":1}` + "\n",            // a line past the cap
		`{"query":0,"more":true,"count":0}` + "\n" + `{"query":0,"ids":[` + strings.Repeat("7,", wire.MaxLineBytes),      // a line that never ends
		`{"query":0,"done":true,"count":0}` + strings.Repeat(" ", wire.MaxLineBytes-33),                                  // exactly the cap, unterminated
		`{"query":0,"done":true,"count":0}` + strings.Repeat(" ", wire.MaxLineBytes-32) + "\n",                           // one byte past it
		`{"query":0,"more":true,"count":0} {"query":0,"done":true,"count":0}` + "\n",                                     // two values on one line
		`{"query":0,"ids":[-1],"done":true,"count":1}` + "\n",
		"null\n[]\n",
		"",
		`{"query":0,"ids":[0,2],"done":true,"count":2}` + "\n",                                                            // a local id 0
		`{"query":0,"ids":[1,3,5],"more":true,"count":0}` + "\n" + `{"query":0,"ids":[4,9],"done":true,"count":5}` + "\n", // descending across lines
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
