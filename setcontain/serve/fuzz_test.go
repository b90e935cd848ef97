package serve_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/setcontain"
	"repro/setcontain/serve"
)

// FuzzQueryRequest feeds arbitrary bytes to POST /query as its body:
// the handler must never panic, answers 200 or 400, a 400 carries a
// QueryErrorResponse, and a 200 is NDJSON in which every query of the
// request, in index order, ends in exactly one final line whose count
// equals the ids received for it.
func FuzzQueryRequest(f *testing.F) {
	const domain = 32
	c := setcontain.NewCollection(domain)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		set := make([]setcontain.Item, 1+rng.Intn(6))
		for j := range set {
			set[j] = setcontain.Item(rng.Intn(domain) * rng.Intn(domain) / domain) // skewed low
		}
		if _, err := c.Add(set); err != nil {
			f.Fatal(err)
		}
	}
	idx, err := setcontain.New(c)
	if err != nil {
		f.Fatal(err)
	}
	// Small chunks, so ordinary answers span several NDJSON lines.
	srv := serve.NewServer(idx, setcontain.NewStore(idx, 0), serve.Config{ChunkIDs: 8})
	f.Cleanup(srv.Close)
	h := srv.Handler()

	for _, seed := range []string{
		// The README's and setcontaind's curl bodies.
		`{"queries":[{"pred":"superset","items":[1,2,3]},
		             {"expr":"subset{3} or equality{17 29}"}]}`,
		`{"queries":[{"pred":"superset","items":[1,2,3]}]}`,
		`{"queries":[{"pred":"subset","items":[0]},{"expr":"not subset{1}","limit":3}]}`,
		`{"queries":[{"expr":"subset{1}","pred":"subset","items":[1]}]}`,
		`{"queries":[{"pred":"subset","items":[1],"limit":-1}]}`,
		`{"queries":[{"pred":"equality","items":[99]}]}`,
		`{"queries":[{"expr":"` + strings.Repeat("(", 600) + `"}]}`,
		`{"queries":[]}`,
		`{"queries":[{"pred":"subset","items":[1]}]} trailing`,
		`{"queries":[{"bogus":1}]}`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest:
			var qe serve.QueryErrorResponse
			dec := json.NewDecoder(rec.Body)
			dec.DisallowUnknownFields()
			if err := dec.Decode(&qe); err != nil || qe.Error == "" {
				t.Fatalf("400 body %q is not a QueryErrorResponse: %v", rec.Body, err)
			}
		case http.StatusOK:
			// The handler accepted the body, so its first JSON value is
			// the request; that is where the query count comes from.
			var req serve.QueryRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				t.Fatalf("200 for a body that does not decode: %v", err)
			}
			ids, _ := decodeResults(t, rec.Body) // checks chunk lines, one final line, its count
			if len(ids) != len(req.Queries) {
				t.Fatalf("%d queries asked, %d answered", len(req.Queries), len(ids))
			}
			for q := range req.Queries {
				if _, ok := ids[q]; !ok {
					t.Fatalf("query %d of %d has no answer", q, len(req.Queries))
				}
			}
		default:
			t.Fatalf("status %d, want 200 or 400; body %q", rec.Code, rec.Body)
		}
	})
}
