package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/wire"
	"repro/setcontain"
	"repro/setcontain/serve"
)

// newTestServer builds a sharded skewed index, a store over it, and an
// httptest server over the serve handlers.
func newTestServer(t testing.TB, cfg serve.Config, opts ...setcontain.Option) (*setcontain.Collection, *setcontain.Store, *serve.Server, *httptest.Server) {
	t.Helper()
	if opts == nil {
		opts = []setcontain.Option{
			setcontain.WithKind(setcontain.Sharded),
			setcontain.WithShards(2),
		}
	}
	c, idx, store := newTestStore(t, opts...)
	srv := serve.NewServer(idx, store, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return c, store, srv, ts
}

// decodeResults reads an NDJSON response body and reassembles the
// answer ids per query index, checking the chunk protocol (More lines
// then one Done line whose Count matches).
func decodeResults(t *testing.T, r io.Reader) (map[int][]uint32, map[int]string) {
	t.Helper()
	ids := make(map[int][]uint32)
	errs := make(map[int]string)
	done := make(map[int]bool)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var res serve.Result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if done[res.Query] {
			t.Fatalf("line for query %d after its Done line", res.Query)
		}
		if _, ok := ids[res.Query]; !ok {
			ids[res.Query] = []uint32{}
		}
		ids[res.Query] = append(ids[res.Query], res.IDs...)
		switch {
		case res.Error != "":
			errs[res.Query] = res.Error
			done[res.Query] = true
		case res.Done:
			if res.Count != len(ids[res.Query]) {
				t.Fatalf("query %d: final Count %d but %d ids streamed", res.Query, res.Count, len(ids[res.Query]))
			}
			done[res.Query] = true
		case !res.More:
			t.Fatalf("line for query %d neither More, Done, nor Error: %q", res.Query, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for q := range ids {
		if !done[q] {
			t.Fatalf("query %d never finished", q)
		}
	}
	return ids, errs
}

// TestServerQueryEndToEnd round-trips a batch of queries over HTTP
// against a sharded index and checks the streamed answers are exactly
// the Store's, including multi-chunk answers.
func TestServerQueryEndToEnd(t *testing.T) {
	c, store, _, ts := newTestServer(t, serve.Config{ChunkIDs: 8})

	queries := serveQueries(t, c, 12)
	req := serve.QueryRequest{}
	for _, q := range queries {
		req.Queries = append(req.Queries, serve.SpecOf(q))
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q", ct)
	}
	ids, errs := decodeResults(t, resp.Body)
	if len(errs) != 0 {
		t.Fatalf("query errors: %v", errs)
	}
	if len(ids) != len(queries) {
		t.Fatalf("answers for %d queries, want %d", len(ids), len(queries))
	}
	for i, q := range queries {
		want, err := store.Exec(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		got := ids[i]
		if len(got) != len(want) {
			t.Fatalf("query %d %v: %d ids over HTTP, %d direct", i, q, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("query %d %v: id[%d] = %d over HTTP, %d direct", i, q, j, got[j], want[j])
			}
		}
	}
}

// TestServerQueryGet answers a single ?q= query in the textual form.
func TestServerQueryGet(t *testing.T) {
	c, store, _, ts := newTestServer(t, serve.Config{})
	q := serveQueries(t, c, 1)[0]
	resp, err := http.Get(ts.URL + "/query?q=" + strings.ReplaceAll(q.String(), " ", "+"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	ids, errs := decodeResults(t, resp.Body)
	if len(errs) != 0 {
		t.Fatalf("query errors: %v", errs)
	}
	want, err := store.Exec(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids[0]) != len(want) {
		t.Fatalf("%d ids over HTTP, %d direct", len(ids[0]), len(want))
	}
}

// TestServerBadRequests pins the 4xx paths: malformed JSON, unknown
// predicate, empty batch, a POST over the per-request query bound, a
// query over the leaf or item bound, bad ?q=, wrong method. None of
// them runs a query.
func TestServerBadRequests(t *testing.T) {
	_, _, srv, ts := newTestServer(t, serve.Config{})
	spec := `{"pred":"subset","items":[1]}`
	cases := []struct {
		name   string
		do     func() (*http.Response, error)
		status int
		// body, when set, must appear in the response body.
		body string
	}{
		{"malformed json", func() (*http.Response, error) {
			return http.Post(ts.URL+"/query", "application/json", strings.NewReader("{"))
		}, http.StatusBadRequest, ""},
		{"unknown predicate", func() (*http.Response, error) {
			return http.Post(ts.URL+"/query", "application/json",
				strings.NewReader(`{"queries":[{"pred":"between","items":[1]}]}`))
		}, http.StatusBadRequest, ""},
		{"no queries", func() (*http.Response, error) {
			return http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"queries":[]}`))
		}, http.StatusBadRequest, ""},
		{"too many queries", func() (*http.Response, error) {
			body := `{"queries":[` + strings.Repeat(spec+",", 1024) + spec + `]}`
			return http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
		}, http.StatusBadRequest, "1025 queries, over the bound of 1024"},
		{"too many leaves", func() (*http.Response, error) {
			leaves := make([]string, 1025)
			for i := range leaves {
				leaves[i] = fmt.Sprintf("subset{%d}", i)
			}
			return http.Get(ts.URL + "/stream?q=" + url.QueryEscape(strings.Join(leaves, " or ")))
		}, http.StatusBadRequest, "1025 leaves, over the bound of 1024"},
		{"too many items", func() (*http.Response, error) {
			items := strings.Repeat("1,", 65536) + "1"
			body := `{"queries":[` + spec + `,{"pred":"subset","items":[` + items + `]}]}`
			return http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
		}, http.StatusBadRequest, "65537 items, over the bound of 65536"},
		{"bad q", func() (*http.Response, error) {
			return http.Get(ts.URL + "/query?q=subset(1+2)")
		}, http.StatusBadRequest, ""},
		{"bad stream q", func() (*http.Response, error) {
			return http.Get(ts.URL + "/stream?q=")
		}, http.StatusBadRequest, ""},
		{"delete method", func() (*http.Response, error) {
			req, err := http.NewRequest(http.MethodDelete, ts.URL+"/query", nil)
			if err != nil {
				return nil, err
			}
			return http.DefaultClient.Do(req)
		}, http.StatusMethodNotAllowed, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := tc.do()
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Errorf("status %d, want %d", resp.StatusCode, tc.status)
			}
			if !strings.Contains(string(body), tc.body) {
				t.Errorf("body %q does not say %q", body, tc.body)
			}
		})
	}
	if n := srv.Batcher().Stats().Queries; n != 0 {
		t.Errorf("refused requests ran %d queries", n)
	}
}

// TestServerStream checks the flushed streaming endpoint delivers a
// large answer chunk-by-chunk, byte-identical to the direct answer.
func TestServerStream(t *testing.T) {
	c, store, _, ts := newTestServer(t, serve.Config{ChunkIDs: 16})
	// subset{hottest item} has the largest answer of the skewed fixture.
	q := hottestQuery(t, c)
	want, err := store.Exec(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) <= 64 {
		t.Fatalf("fixture too small: hottest answer only %d ids", len(want))
	}

	resp, err := http.Get(ts.URL + "/stream?q=" + strings.ReplaceAll(q.String(), " ", "+"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	ids, errs := decodeResults(t, resp.Body)
	if len(errs) != 0 {
		t.Fatalf("stream errors: %v", errs)
	}
	got := ids[0]
	if len(got) != len(want) {
		t.Fatalf("%d ids streamed, want %d", len(got), len(want))
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("id[%d] = %d streamed, %d direct", j, got[j], want[j])
		}
	}
}

// hottestQuery returns subset{most frequent item} — the widest answer
// in the fixture.
func hottestQuery(t testing.TB, c *setcontain.Collection) setcontain.Query {
	t.Helper()
	counts := make(map[setcontain.Item]int)
	for id := uint32(1); int(id) <= c.Len(); id++ {
		set, err := c.Record(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range set {
			counts[it]++
		}
	}
	var best setcontain.Item
	for it, n := range counts {
		if n > counts[best] {
			best = it
		}
	}
	return setcontain.SubsetQuery([]setcontain.Item{best})
}

// disconnectingWriter is a ResponseWriter standing in for a client
// that vanishes after the first response chunk: the first Write
// cancels the request context, exactly what net/http does to
// r.Context() when the peer disconnects.
type disconnectingWriter struct {
	header http.Header
	writes int
	cancel context.CancelFunc
}

func (w *disconnectingWriter) Header() http.Header { return w.header }
func (w *disconnectingWriter) WriteHeader(int)     {}
func (w *disconnectingWriter) Flush()              {}
func (w *disconnectingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes == 1 {
		w.cancel()
	}
	return len(p), nil
}

// TestServerStreamClientDisconnect drops the client after the first
// chunk of a many-chunk stream and checks the handler aborts promptly
// — the cancelled request context stops the chunk loop (and, had the
// cancel landed during execution, the Store's interrupt hook; see
// TestBatcherCancelMidExecution) — rather than writing every remaining
// chunk into the void.
func TestServerStreamClientDisconnect(t *testing.T) {
	c, store, srv, _ := newTestServer(t, serve.Config{ChunkIDs: 4})
	q := hottestQuery(t, c)
	want, err := store.Exec(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	totalChunks := (len(want) + 3) / 4
	if totalChunks < 8 {
		t.Fatalf("fixture too small: only %d chunks", totalChunks)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &disconnectingWriter{header: make(http.Header), cancel: cancel}
	req := httptest.NewRequest(http.MethodGet,
		"/stream?q="+strings.ReplaceAll(q.String(), " ", "+"), nil).WithContext(ctx)
	srv.Handler().ServeHTTP(w, req)

	if w.writes >= totalChunks {
		t.Errorf("handler wrote %d chunks to a disconnected client (answer has %d)", w.writes, totalChunks)
	}
	waitFor(t, "abort to be recorded", func() bool {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		var st serve.StatsResponse
		if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.Streams.Aborted >= 1 && st.Streams.Served == 0
	})
}

// TestServerSaturation429 parks the dispatcher, fills the admission
// queue, and checks a fresh request — POST /query or GET /stream — is
// refused with 429 and a Retry-After header, then releases the gate
// and checks the queued request completes.
func TestServerSaturation429(t *testing.T) {
	c, _, srv, ts := newTestServer(t, serve.Config{
		MaxPending:  1,
		Dispatchers: 1,
	})
	queries := serveQueries(t, c, 3)

	gate := newBlockingCtx()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := srv.Batcher().DoExprLimit(gate, nil, setcontain.ExprOf(queries[0]), 0); err != nil {
			t.Errorf("gated query: %v", err)
		}
	}()
	waitFor(t, "dispatcher to park on the gate", func() bool { return gate.calls.Load() >= 2 })

	// One HTTP request occupies the queue slot and blocks.
	post := func(q setcontain.Query) (*http.Response, error) {
		body, err := json.Marshal(serve.QueryRequest{Queries: []serve.QuerySpec{serve.SpecOf(q)}})
		if err != nil {
			t.Fatal(err)
		}
		return http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	}
	queuedDone := make(chan error, 1)
	go func() {
		resp, err := post(queries[1])
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("queued request: status %d", resp.StatusCode)
			}
		}
		queuedDone <- err
	}()
	waitFor(t, "queued request to occupy the slot", func() bool {
		return srv.Batcher().Stats().Pending == 1
	})

	// The queue is full: the next request must shed with 429 before its
	// first response byte — on /query and on /stream alike, which is
	// admitted through the same batcher.
	for _, shed := range []struct {
		name string
		do   func() (*http.Response, error)
	}{
		{"POST /query", func() (*http.Response, error) { return post(queries[2]) }},
		{"GET /stream", func() (*http.Response, error) {
			return http.Get(ts.URL + "/stream?q=" + strings.ReplaceAll(queries[2].String(), " ", "+"))
		}},
	} {
		resp, err := shed.do()
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s: status %d, want 429", shed.name, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s: 429 without Retry-After", shed.name)
		}
		if bytes.Contains(body, []byte(`"query"`)) {
			t.Errorf("%s: 429 body carries result lines: %q", shed.name, body)
		}
	}
	// A shed stream is neither served nor aborted.
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var st serve.StatsResponse
	if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Streams.Served != 0 || st.Streams.Aborted != 0 {
		t.Errorf("shed stream counted: %+v", st.Streams)
	}

	close(gate.gate)
	wg.Wait()
	if err := <-queuedDone; err != nil {
		t.Fatal(err)
	}
}

// TestServerStatsAndHealth exercises /stats and /healthz after load:
// batcher counters advance, shard plans surface, health reports the
// index identity.
func TestServerStatsAndHealth(t *testing.T) {
	c, _, _, ts := newTestServer(t, serve.Config{})
	queries := serveQueries(t, c, 9)
	req := serve.QueryRequest{}
	for _, q := range queries {
		req.Queries = append(req.Queries, serve.SpecOf(q))
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	statsResp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var st serve.StatsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Batcher.Queries != int64(len(queries)) {
		t.Errorf("stats report %d queries, want %d", st.Batcher.Queries, len(queries))
	}
	if st.Batcher.Rejected != 0 || st.Batcher.Canceled != 0 || st.Batcher.Pending != 0 {
		t.Errorf("admission counters after an unloaded request: %+v", st.Batcher)
	}
	if len(st.ShardPlans) != 2 {
		t.Errorf("%d shard plans, want 2", len(st.ShardPlans))
	}
	if st.Store.CacheHits+st.Store.PageReads == 0 {
		t.Errorf("no page-cache traffic surfaced: %+v", st.Store)
	}
	if st.UptimeSeconds <= 0 {
		t.Errorf("uptime %f", st.UptimeSeconds)
	}

	healthResp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer healthResp.Body.Close()
	var h serve.HealthResponse
	if err := json.NewDecoder(healthResp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Kind != "Sharded" || h.Records != c.Len() || h.Domain != c.DomainSize() {
		t.Errorf("health = %+v", h)
	}
}

// TestResultLinesFitTheLineCap holds every answer line a daemon writes
// under the cap its coordinators read with. A Result of
// wire.MaxResultIDs ids, each the widest id and every other field at its
// widest, fits wire.MaxLineBytes, and one more id does not. A server
// asked for chunks far past that count clamps them, so it never writes
// a longer line.
func TestResultLinesFitTheLineCap(t *testing.T) {
	widest := func(n int) int {
		ids := make([]uint32, n)
		for i := range ids {
			ids[i] = math.MaxUint32
		}
		line, err := json.Marshal(serve.Result{Query: math.MinInt, IDs: ids, More: true, Done: true, Count: math.MinInt})
		if err != nil {
			t.Fatal(err)
		}
		return len(line)
	}
	if n := widest(wire.MaxResultIDs); n > wire.MaxLineBytes {
		t.Errorf("a line of %d ids is %d bytes, over the %d-byte cap", wire.MaxResultIDs, n, wire.MaxLineBytes)
	}
	if n := widest(wire.MaxResultIDs + 1); n <= wire.MaxLineBytes {
		t.Errorf("a line of %d ids is %d bytes, still under the cap: MaxResultIDs is not the largest count", wire.MaxResultIDs+1, n)
	}

	// 200 000 records all match subset{}: as one line, well over the cap.
	const records = 200_000
	c := setcontain.NewCollection(1)
	for i := 0; i < records; i++ {
		if _, err := c.Add([]setcontain.Item{0}); err != nil {
			t.Fatal(err)
		}
	}
	idx, err := setcontain.New(c)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(idx, setcontain.NewStore(idx, 0), serve.Config{ChunkIDs: 1 << 20})
	defer srv.Close()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query?q=subset{}", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if rec.Body.Len() <= wire.MaxLineBytes {
		t.Fatalf("the whole answer is %d bytes; the fixture must exceed the cap", rec.Body.Len())
	}
	for i, line := range bytes.Split(bytes.TrimSuffix(rec.Body.Bytes(), []byte("\n")), []byte("\n")) {
		if len(line) > wire.MaxLineBytes {
			t.Errorf("line %d is %d bytes, over the %d-byte cap", i, len(line), wire.MaxLineBytes)
		}
	}
	ids, errs := decodeResults(t, bytes.NewReader(rec.Body.Bytes()))
	if len(errs) != 0 || len(ids[0]) != records {
		t.Errorf("answer: %d ids, errors %v; want %d ids", len(ids[0]), errs, records)
	}
}
