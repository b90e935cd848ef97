package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"testing"

	"repro/setcontain"
	"repro/setcontain/serve"
)

// postJSON POSTs a JSON body and decodes the JSON response into out
// (skipped when out is nil), failing on a non-2xx status unless
// wantStatus says otherwise.
func postJSON(t *testing.T, url string, body any, out any, wantStatus int) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if out != nil && wantStatus == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

// queryIDs runs one GET /query and returns the answer ids.
func queryIDs(t *testing.T, base string, q setcontain.Query) []uint32 {
	t.Helper()
	resp, err := http.Get(base + "/query?q=" + strings.ReplaceAll(q.String(), " ", "+"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /query: status %d", resp.StatusCode)
	}
	ids, errs := decodeResults(t, resp.Body)
	if len(errs) != 0 {
		t.Fatalf("query errors: %v", errs)
	}
	return ids[0]
}

// TestAdminLifecycle drives the full mutation surface end to end:
// insert records (visible to queries immediately after the response),
// delete one (masked immediately), merge (physical fold-out), snapshot
// (the body restores via setcontain.Open with identical answers).
func TestAdminLifecycle(t *testing.T) {
	_, _, _, ts := newTestServer(t, serve.Config{})

	probe := setcontain.SubsetQuery([]setcontain.Item{2, 5})
	baseline := queryIDs(t, ts.URL, probe)

	// Insert two records matching the probe.
	var ins serve.InsertResponse
	postJSON(t, ts.URL+"/admin/insert", serve.InsertRequest{
		Sets: [][]setcontain.Item{{2, 5, 9}, {2, 5}},
	}, &ins, http.StatusOK)
	if len(ins.IDs) != 2 {
		t.Fatalf("insert returned ids %v, want 2", ins.IDs)
	}
	afterInsert := queryIDs(t, ts.URL, probe)
	for _, id := range ins.IDs {
		if _, found := slices.BinarySearch(afterInsert, id); !found {
			t.Fatalf("inserted id %d invisible to queries: %v -> %v", id, baseline, afterInsert)
		}
	}

	// Delete one of them plus an original record from the baseline.
	var del serve.DeleteResponse
	postJSON(t, ts.URL+"/admin/delete", serve.DeleteRequest{
		IDs: []uint32{ins.IDs[0], baseline[0]},
	}, &del, http.StatusOK)
	if del.Deleted != 2 {
		t.Fatalf("delete reported %d, want 2", del.Deleted)
	}
	afterDelete := queryIDs(t, ts.URL, probe)
	for _, id := range []uint32{ins.IDs[0], baseline[0]} {
		if _, found := slices.BinarySearch(afterDelete, id); found {
			t.Fatalf("deleted id %d still answering", id)
		}
	}

	// Health reflects the mutation state.
	var health serve.HealthResponse
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Pending != 2 || health.Deleted != 2 {
		t.Fatalf("healthz pending/deleted = %d/%d, want 2/2", health.Pending, health.Deleted)
	}

	// Merge folds everything in; answers must not change.
	var merged serve.AdminStateResponse
	postJSON(t, ts.URL+"/admin/merge", nil, &merged, http.StatusOK)
	if merged.Pending != 0 || merged.Deleted != 2 {
		t.Fatalf("merge state %+v, want pending 0, deleted 2", merged)
	}
	if got := queryIDs(t, ts.URL, probe); !slices.Equal(got, afterDelete) {
		t.Fatalf("answers changed across merge: %v -> %v", afterDelete, got)
	}

	// Snapshot: the response body must restore to an index answering
	// exactly like the live daemon.
	snapResp, err := http.Post(ts.URL+"/admin/snapshot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer snapResp.Body.Close()
	if snapResp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status %d", snapResp.StatusCode)
	}
	restored, err := setcontain.Open(snapResp.Body)
	if err != nil {
		t.Fatalf("Open(snapshot body): %v", err)
	}
	want := queryIDs(t, ts.URL, probe)
	got, err := probe.Eval(restored)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("restored snapshot answers %v, live daemon %v", got, want)
	}
	if restored.Deleted() != 2 {
		t.Fatalf("restored snapshot lost tombstones: %d", restored.Deleted())
	}
}

// TestAdminValidation: malformed bodies, empty payloads, bad ids, and
// wrong methods all fail with client errors and leave the index serving.
func TestAdminValidation(t *testing.T) {
	_, _, _, ts := newTestServer(t, serve.Config{})

	for _, tc := range []struct {
		path   string
		body   string
		status int
	}{
		{"/admin/insert", `{"sets":[]}`, http.StatusBadRequest},
		{"/admin/insert", `{"nope":1}`, http.StatusBadRequest},
		{"/admin/delete", `{"ids":[]}`, http.StatusBadRequest},
		{"/admin/delete", `{"ids":[0]}`, http.StatusBadRequest},
		{"/admin/delete", `{"ids":[4000000000]}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("POST %s %s: status %d, want %d", tc.path, tc.body, resp.StatusCode, tc.status)
		}
	}
	for _, path := range []string{"/admin/insert", "/admin/delete", "/admin/merge", "/admin/snapshot"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s: status %d, want 405", path, resp.StatusCode)
		}
	}
	// Still serving.
	if ids := queryIDs(t, ts.URL, setcontain.SubsetQuery([]setcontain.Item{2})); len(ids) == 0 {
		t.Error("index stopped answering after validation failures")
	}
}

// TestAdminMutationsDuringTraffic mutates and snapshots while queries,
// /healthz, and /stats hammer the server from several goroutines — the
// warm-backup-under-load scenario, and (under -race) the regression
// test for the read-only handlers touching mutable index state outside
// the Index's lock. Snapshots must restore, reads must never fail.
func TestAdminMutationsDuringTraffic(t *testing.T) {
	c, _, _, ts := newTestServer(t, serve.Config{})
	queries := serveQueries(t, c, 16)

	stop := make(chan struct{})
	errc := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			for i := 0; ; i++ {
				select {
				case <-stop:
					errc <- nil
					return
				default:
				}
				path := "/query?q=" + strings.ReplaceAll(queries[(g+i)%len(queries)].String(), " ", "+")
				switch i % 3 {
				case 1:
					path = "/healthz"
				case 2:
					path = "/stats"
				}
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					errc <- fmt.Errorf("worker %d: %v", g, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					errc <- fmt.Errorf("worker %d: %s: status %d", g, path, resp.StatusCode)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 3; i++ {
		var ins serve.InsertResponse
		postJSON(t, ts.URL+"/admin/insert", serve.InsertRequest{
			Sets: [][]setcontain.Item{{1, 2}, {uint32(i), 3}},
		}, &ins, http.StatusOK)
		postJSON(t, ts.URL+"/admin/delete", serve.DeleteRequest{IDs: []uint32{ins.IDs[0]}},
			nil, http.StatusOK)
		if i == 1 {
			postJSON(t, ts.URL+"/admin/merge", nil, nil, http.StatusOK)
		}
		resp, err := http.Post(ts.URL+"/admin/snapshot", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := setcontain.Open(resp.Body); err != nil {
			t.Fatalf("snapshot %d under traffic failed to restore: %v", i, err)
		}
		resp.Body.Close()
	}
	close(stop)
	for g := 0; g < 4; g++ {
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}
}
