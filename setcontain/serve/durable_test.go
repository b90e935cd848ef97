package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/wal"
	"repro/setcontain"
	"repro/setcontain/serve"
)

// newDurableServer builds a durable index over a fresh WAL directory
// and serves it: the returned httptest server routes /admin mutations
// through the write-ahead log. The Durable is returned so the test can
// close it and reopen the directory to check recovery.
func newDurableServer(t *testing.T, dir string) (*setcontain.Durable, *httptest.Server) {
	t.Helper()
	c := serveCollection(t)
	idx, err := setcontain.New(c,
		setcontain.WithKind(setcontain.Sharded),
		setcontain.WithShards(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	d, err := setcontain.NewDurable(dir, idx, setcontain.DurableOptions{
		Sync:            wal.SyncAlways,
		CheckpointBytes: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(d.Index(), d.Store(), serve.Config{Durable: d})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		d.Close()
	})
	return d, ts
}

// TestDurableServerLifecycle drives the logged mutation surface end to
// end over HTTP: inserts and deletes are acknowledged only after the
// WAL record is durable, /admin/checkpoint folds the log into a
// snapshot, /stats and /healthz expose the WAL's state, and reopening
// the directory after the server is gone recovers every acknowledged
// mutation.
func TestDurableServerLifecycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	d, ts := newDurableServer(t, dir)

	probe := setcontain.SubsetQuery([]setcontain.Item{2, 5})
	baseline := queryIDs(t, ts.URL, probe)

	// Insert two records matching the probe; the ack implies the log
	// records are on disk.
	var ins serve.InsertResponse
	postJSON(t, ts.URL+"/admin/insert", serve.InsertRequest{
		Sets: [][]setcontain.Item{{2, 5, 9}, {2, 5}},
	}, &ins, http.StatusOK)
	if len(ins.IDs) != 2 {
		t.Fatalf("insert returned ids %v, want 2", ins.IDs)
	}
	after := queryIDs(t, ts.URL, probe)
	if len(after) != len(baseline)+2 {
		t.Fatalf("probe answered %d ids after insert, want %d", len(after), len(baseline)+2)
	}

	// Delete one of them; also logged before the ack.
	var del serve.DeleteResponse
	postJSON(t, ts.URL+"/admin/delete", serve.DeleteRequest{IDs: ins.IDs[:1]}, &del, http.StatusOK)
	if del.Deleted != 1 {
		t.Fatalf("delete reported %d, want 1", del.Deleted)
	}

	if lsn := d.Stats().Log.LastLSN; lsn != 3 {
		t.Fatalf("LastLSN = %d after 3 logged mutations, want 3", lsn)
	}

	// The WAL surfaces in /stats and /healthz.
	var stats serve.StatsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.WAL == nil {
		t.Fatal("/stats has no wal section on a durable server")
	}
	if stats.WAL.Appends != 3 || stats.WAL.LastLSN != 3 {
		t.Fatalf("/stats wal = %+v, want 3 appends at lsn 3", stats.WAL)
	}
	if stats.WAL.Syncs == 0 {
		t.Fatalf("/stats wal reports no syncs under the always policy: %+v", stats.WAL)
	}
	var health serve.HealthResponse
	getJSON(t, ts.URL+"/healthz", &health)
	if health.WAL == nil || health.WAL.LastLSN != 3 || health.WAL.Wedged {
		t.Fatalf("/healthz wal = %+v, want healthy lsn 3", health.WAL)
	}

	// Checkpoint: the log folds into a snapshot and truncates.
	var ckpt serve.CheckpointResponse
	postJSON(t, ts.URL+"/admin/checkpoint", nil, &ckpt, http.StatusOK)
	if ckpt.CheckpointLSN != 3 {
		t.Fatalf("checkpoint watermark %d, want 3", ckpt.CheckpointLSN)
	}
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.WAL.CheckpointLSN != 3 || stats.WAL.BytesSinceCheckpoint != 0 {
		t.Fatalf("/stats wal after checkpoint = %+v, want watermark 3 and 0 bytes since", stats.WAL)
	}

	// One more acked insert after the checkpoint, so recovery must
	// combine snapshot and log tail.
	postJSON(t, ts.URL+"/admin/insert", serve.InsertRequest{
		Sets: [][]setcontain.Item{{2, 5, 11}},
	}, &ins, http.StatusOK)
	want := queryIDs(t, ts.URL, probe)

	// Tear the server down and reopen the directory cold: everything
	// acknowledged above must still be there.
	records := d.Index().NumRecords()
	ts.Close()
	d.Close()

	re, err := setcontain.OpenDurable(dir, setcontain.DurableOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Index().NumRecords(); got != records {
		t.Fatalf("recovered %d records, want %d", got, records)
	}
	if st := re.Stats(); st.Replay.Records != 1 {
		t.Fatalf("replayed %d log records, want 1 (the post-checkpoint insert)", st.Replay.Records)
	}
	got, err := probe.Eval(re.Index())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered probe answer %v, want %v", got, want)
	}
}

// TestCheckpointWithoutWAL checks that /admin/checkpoint on a plain
// in-memory server fails with 412 rather than pretending to persist.
func TestCheckpointWithoutWAL(t *testing.T) {
	_, _, _, ts := newTestServer(t, serve.Config{})
	postJSON(t, ts.URL+"/admin/checkpoint", nil, nil, http.StatusPreconditionFailed)

	// And its /stats and /healthz omit the wal section entirely.
	var stats serve.StatsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.WAL != nil {
		t.Fatalf("/stats wal = %+v on a non-durable server, want absent", stats.WAL)
	}
	var health serve.HealthResponse
	getJSON(t, ts.URL+"/healthz", &health)
	if health.WAL != nil {
		t.Fatalf("/healthz wal = %+v on a non-durable server, want absent", health.WAL)
	}
}

// getJSON decodes one GET endpoint's JSON body.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestInsertPartialFailureReportsIDs: a mid-batch insert failure must
// return the ids assigned before the failing set — with a WAL they are
// already durably acknowledged server-side, so discarding them would
// leave the client unable to reconcile the partial batch.
func TestInsertPartialFailureReportsIDs(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	_, ts := newDurableServer(t, dir)

	body, err := json.Marshal(serve.InsertRequest{
		Sets: [][]setcontain.Item{{2, 5}, {4000000000}, {3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/admin/insert", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("partial insert status %d, want 400", resp.StatusCode)
	}
	var e serve.InsertErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("decoding error body: %v", err)
	}
	if e.Error == "" || len(e.IDs) != 1 || e.FailedSet != 1 {
		t.Fatalf("error body %+v, want 1 id and failed_set 1", e)
	}
	// The acknowledged first set answers queries under its reported id.
	got := queryIDs(t, ts.URL, setcontain.SubsetQuery([]setcontain.Item{2, 5}))
	found := false
	for _, id := range got {
		found = found || id == e.IDs[0]
	}
	if !found {
		t.Fatalf("acked id %d from error body not answering: %v", e.IDs[0], got)
	}
}

// TestMutationStatusClassifiesError: the 503-vs-400 split must follow
// the request's own error, not the log's global state — a wedged log
// answers 503 for the requests that hit the wedge, while a request
// failing on its own engine error still gets 400 even though the log
// is wedged.
func TestMutationStatusClassifiesError(t *testing.T) {
	c := serveCollection(t)
	idx, err := setcontain.New(c,
		setcontain.WithKind(setcontain.Sharded),
		setcontain.WithShards(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	faulty := wal.NewFaultyFS(wal.NewMemFS(), 0)
	d, err := setcontain.NewDurable("w", idx, setcontain.DurableOptions{
		Sync:            wal.SyncAlways,
		CheckpointBytes: -1,
		FS:              faulty,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(d.Index(), d.Store(), serve.Config{Durable: d})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		d.Close()
	})

	faulty.FailAt = faulty.Ops() + 1
	postJSON(t, ts.URL+"/admin/insert", serve.InsertRequest{
		Sets: [][]setcontain.Item{{2, 5}},
	}, nil, http.StatusServiceUnavailable)

	// The log is now wedged, but a delete of an unknown id fails in the
	// engine before reaching it: still the client's own 400.
	postJSON(t, ts.URL+"/admin/delete", serve.DeleteRequest{
		IDs: []uint32{4000000000},
	}, nil, http.StatusBadRequest)

	// A mutation that does reach the wedged log keeps answering 503.
	postJSON(t, ts.URL+"/admin/insert", serve.InsertRequest{
		Sets: [][]setcontain.Item{{3}},
	}, nil, http.StatusServiceUnavailable)
}
