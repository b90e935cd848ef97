package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"repro/setcontain"
	"repro/setcontain/serve"
)

// exprFixture builds a server plus a multi-leaf expression with a
// non-trivial answer over its fixture collection.
func exprFixture(t *testing.T) (*setcontain.Store, *httptestExpr, *setcontain.Expr) {
	t.Helper()
	c, store, _, ts := newTestServer(t, serve.Config{ChunkIDs: 16})
	qs := serveQueries(t, c, 2)
	hot := hottestQuery(t, c)
	expr := setcontain.And(
		setcontain.ExprOf(hot),
		setcontain.Not(setcontain.ExprOf(setcontain.Query{
			Pred:  setcontain.PredicateSuperset,
			Items: qs[0].Items,
		})),
	)
	return store, &httptestExpr{ts.URL}, expr
}

type httptestExpr struct{ url string }

func (h *httptestExpr) get(t *testing.T, path, q string) *http.Response {
	t.Helper()
	resp, err := http.Get(h.url + path + "?q=" + url.QueryEscape(q))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestServerExprGet answers a boolean expression through GET /query and
// GET /stream, byte-identical to the store's direct planned answer.
func TestServerExprGet(t *testing.T) {
	store, h, expr := exprFixture(t)
	want, err := store.ExecExprAppend(context.Background(), nil, expr)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("fixture expression answers nothing; pick a wider one")
	}
	for _, path := range []string{"/query", "/stream"} {
		resp := h.get(t, path, expr.String())
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		ids, errs := decodeResults(t, resp.Body)
		resp.Body.Close()
		if len(errs) != 0 {
			t.Fatalf("GET %s: errors %v", path, errs)
		}
		got := ids[0]
		if len(got) != len(want) {
			t.Fatalf("GET %s: %d ids, want %d", path, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("GET %s: id[%d] = %d, want %d", path, i, got[i], want[i])
			}
		}
	}
}

// TestServerExprPost mixes structured one-predicate specs and textual
// expression specs in one POST batch; each answer must match the
// store's direct one.
func TestServerExprPost(t *testing.T) {
	store, h, expr := exprFixture(t)
	leaf := setcontain.SubsetQuery([]setcontain.Item{0})
	req := serve.QueryRequest{Queries: []serve.QuerySpec{
		serve.SpecOf(leaf),
		{Expr: expr.String()},
		serve.SpecOfExpr(expr),
	}}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(h.url+"/query", "application/json", bytes.NewReader(body))
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
	ctx := context.Background()
	wantLeaf, err := store.Exec(ctx, leaf)
	if err != nil {
		t.Fatal(err)
	}
	wantExpr, err := store.ExecExprAppend(ctx, nil, expr)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range [][]uint32{wantLeaf, wantExpr, wantExpr} {
		got := ids[i]
		if len(got) != len(want) {
			t.Fatalf("query %d: %d ids, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("query %d: id[%d] = %d, want %d", i, j, got[j], want[j])
			}
		}
	}
}

// TestServerExprErrors pins the expression 400 paths: the JSON error
// body carries the parse offset on GET /query, GET /stream, and POST
// expr specs, and a spec setting both expr and pred is refused.
func TestServerExprErrors(t *testing.T) {
	_, h, _ := exprFixture(t)
	decode := func(t *testing.T, resp *http.Response) serve.QueryErrorResponse {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type %q, want application/json", ct)
		}
		var body serve.QueryErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("decoding error body: %v", err)
		}
		if body.Error == "" {
			t.Fatal("error body carries no message")
		}
		return body
	}
	// "subset(1 2)": the failing byte is the paren at offset 6.
	for _, path := range []string{"/query", "/stream"} {
		t.Run("GET "+path, func(t *testing.T) {
			body := decode(t, h.get(t, path, "subset(1 2)"))
			if body.Offset == nil || *body.Offset != 6 {
				t.Fatalf("offset %v, want 6 (%s)", body.Offset, body.Error)
			}
		})
	}
	post := func(t *testing.T, reqBody string) *http.Response {
		t.Helper()
		resp, err := http.Post(h.url+"/query", "application/json", strings.NewReader(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	t.Run("POST bad expr", func(t *testing.T) {
		body := decode(t, post(t, `{"queries":[{"expr":"subset(1 2)"}]}`))
		if body.Offset == nil || *body.Offset != 6 {
			t.Fatalf("offset %v, want 6 (%s)", body.Offset, body.Error)
		}
	})
	t.Run("POST stack bomb", func(t *testing.T) {
		// 4 000 000 nested parentheses fit under maxRequestBytes; they used
		// to overflow the parser's stack and kill the process. Now: a
		// positioned 400, and the daemon answers the next request.
		const depth = 4_000_000
		bomb := strings.Repeat("(", depth) + "subset{1}" + strings.Repeat(")", depth)
		body := decode(t, post(t, `{"queries":[{"expr":"`+bomb+`"}]}`))
		if body.Offset == nil || *body.Offset <= 0 || *body.Offset >= depth {
			t.Fatalf("offset %v, want inside the run of parentheses", body.Offset)
		}
		resp := h.get(t, "/query", "subset{0}")
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("next request: status %d", resp.StatusCode)
		}
	})
	t.Run("POST expr and pred", func(t *testing.T) {
		body := decode(t, post(t, `{"queries":[{"pred":"subset","items":[1],"expr":"subset{1}"}]}`))
		if body.Offset != nil {
			t.Fatalf("ambiguous spec is not a positioned parse error, got offset %d", *body.Offset)
		}
	})
	t.Run("POST unknown predicate keeps plain 400", func(t *testing.T) {
		decode(t, post(t, `{"queries":[{"pred":"between","items":[1]}]}`))
	})
}

// TestServerExprLimit wires the limit end-to-end: GET ?limit= on /query
// and /stream, the "limit" field on POST specs — each answering exactly
// the first n ids of the unlimited answer — and 400 on a negative or
// malformed limit.
func TestServerExprLimit(t *testing.T) {
	store, h, expr := exprFixture(t)
	want, err := store.ExecExprAppend(context.Background(), nil, expr)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 3 {
		t.Fatalf("fixture expression answers %d ids; test needs at least 3", len(want))
	}
	const n = 2
	for _, path := range []string{"/query", "/stream"} {
		resp, err := http.Get(h.url + path + "?q=" + url.QueryEscape(expr.String()) + "&limit=2")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		ids, errs := decodeResults(t, resp.Body)
		resp.Body.Close()
		if len(errs) != 0 {
			t.Fatalf("GET %s: errors %v", path, errs)
		}
		got := ids[0]
		if len(got) != n || got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("GET %s limit=%d: got %v, want %v", path, n, got, want[:n])
		}
	}
	req := serve.QueryRequest{Queries: []serve.QuerySpec{
		{Expr: expr.String(), Limit: n},
		{Expr: expr.String()},
	}}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(h.url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST: status %d", resp.StatusCode)
	}
	ids, errs := decodeResults(t, resp.Body)
	resp.Body.Close()
	if len(errs) != 0 {
		t.Fatalf("POST: errors %v", errs)
	}
	if len(ids[0]) != n || ids[0][0] != want[0] {
		t.Fatalf("POST limited query: got %v, want %v", ids[0], want[:n])
	}
	if len(ids[1]) != len(want) {
		t.Fatalf("POST unlimited query: %d ids, want %d", len(ids[1]), len(want))
	}
	// Bad limits are client errors before any evaluation.
	for _, bad := range []string{"-1", "nope", "1.5"} {
		for _, path := range []string{"/query", "/stream"} {
			resp, err := http.Get(h.url + path + "?q=" + url.QueryEscape("subset{1}") + "&limit=" + url.QueryEscape(bad))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("GET %s limit=%q: status %d, want 400", path, bad, resp.StatusCode)
			}
		}
	}
	resp, err = http.Post(h.url+"/query", "application/json",
		strings.NewReader(`{"queries":[{"expr":"subset{1}","limit":-3}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST negative limit: status %d, want 400", resp.StatusCode)
	}
}

// TestServerStatsPlanner checks /stats reports the expression planner's
// accounting after a multi-leaf query ran.
func TestServerStatsPlanner(t *testing.T) {
	store, h, expr := exprFixture(t)
	resp := h.get(t, "/query", expr.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	decodeResults(t, resp.Body)
	resp.Body.Close()

	sresp, err := http.Get(h.url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st serve.StatsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	est := store.ExprStats()
	if st.Planner.Expressions != est.Expressions || est.Expressions == 0 {
		t.Fatalf("planner expressions %d over HTTP, %d direct", st.Planner.Expressions, est.Expressions)
	}
	if st.Planner.EvaluatedLeaves != est.EvaluatedLeaves {
		t.Fatalf("planner evaluated leaves %d over HTTP, %d direct", st.Planner.EvaluatedLeaves, est.EvaluatedLeaves)
	}
	if st.Planner.Theta != store.Supports().Theta {
		t.Fatalf("planner theta %v over HTTP, %v direct", st.Planner.Theta, store.Supports().Theta)
	}
}
