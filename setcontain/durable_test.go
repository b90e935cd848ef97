package setcontain

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/wal"
)

// answers returns idx's answers to queries, for comparing two indexes.
func answers(t *testing.T, idx *Index, queries []Query) [][]uint32 {
	t.Helper()
	out := make([][]uint32, len(queries))
	for i, q := range queries {
		var err error
		if out[i], err = q.Eval(idx); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	return out
}

// TestDurableWedgeStopsMutations pins the divergence guard: after a log
// failure every further logical mutation fails with the original error,
// while queries keep answering.
func TestDurableWedgeStopsMutations(t *testing.T) {
	coll := skewedCollection(t, 50, 30, 0.8, 3)
	idx, err := New(coll, WithKind(OIF), WithPageSize(512), WithBlockPostings(8))
	if err != nil {
		t.Fatal(err)
	}
	mem := wal.NewMemFS()
	faulty := wal.NewFaultyFS(mem, 0)
	d, err := NewDurable("w", idx, DurableOptions{Sync: wal.SyncAlways, CheckpointBytes: -1, FS: faulty})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.InsertSets([][]Item{{1, 2, 3}}); err != nil {
		t.Fatalf("healthy insert: %v", err)
	}
	faulty.FailAt = faulty.Ops() + 1
	if _, err := d.InsertSets([][]Item{{4, 5}}); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("faulted insert = %v, want injected", err)
	}
	if _, err := d.InsertSets([][]Item{{6}}); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("post-wedge insert = %v, want injected", err)
	}
	if err := d.DeleteIDs([]uint32{1}); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("post-wedge delete = %v, want injected", err)
	}
	if err := d.Checkpoint(); err == nil {
		t.Fatalf("post-wedge checkpoint succeeded")
	}
	if !d.Stats().Log.Wedged {
		t.Fatalf("stats not wedged")
	}
	// Queries still answer on the in-memory index.
	if _, err := d.Index().Subset(nil); err != nil {
		t.Fatalf("query after wedge: %v", err)
	}
}

// TestDurableRoundTripOSFS exercises the real filesystem end to end:
// bootstrap, mutate, checkpoint, close, reopen, keep mutating.
func TestDurableRoundTripOSFS(t *testing.T) {
	dir := t.TempDir() + "/wal"
	coll := skewedCollection(t, 120, 30, 0.8, 5)
	queries := zipfWorkload(30, 30, 0.8, 6)
	idx, err := New(coll, WithKind(OIF), WithPageSize(512), WithBlockPostings(8))
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDurable(dir, idx, DurableOptions{Sync: wal.SyncAlways, SegmentBytes: 1024, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := d.InsertSets([][]Item{{1, 2}, {3, 4, 5}, {2, 9}})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteIDs(ids[:1]); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertSets([][]Item{{7, 8}}); err != nil {
		t.Fatal(err)
	}
	want := answers(t, d.Index(), queries)
	wantRecords := d.Index().NumRecords()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDurable(dir, DurableOptions{Sync: wal.SyncAlways, SegmentBytes: 1024, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.Index().NumRecords(); got != wantRecords {
		t.Fatalf("recovered %d records, want %d", got, wantRecords)
	}
	if got := answers(t, d2.Index(), queries); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered answers %v, pre-shutdown %v", got, want)
	}
	st := d2.Stats()
	if st.Replay.Records != 1 { // the post-checkpoint insert
		t.Fatalf("replayed %d records, want 1", st.Replay.Records)
	}
	// The directory stays usable: more mutations and a fresh checkpoint.
	if _, err := d2.InsertSets([][]Item{{11, 12}}); err != nil {
		t.Fatal(err)
	}
	if err := d2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// NewDurable must refuse the initialized directory.
	if _, err := NewDurable(dir, idx, DurableOptions{}); err == nil {
		t.Fatalf("NewDurable re-seeded an existing durable directory")
	}
}

// TestDurableCheckpointTruncatesLog verifies the checkpoint manager's
// file-level contract: segments covered by the checkpoint disappear,
// two checkpoint generations are retained, and recovery prefers the
// newest.
func TestDurableCheckpointTruncatesLog(t *testing.T) {
	coll := skewedCollection(t, 60, 25, 0.8, 4)
	mem := wal.NewMemFS()
	mk := func() *Index {
		idx, err := New(coll, WithKind(OIF), WithPageSize(512), WithBlockPostings(8))
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	d, err := NewDurable("w", mk(), DurableOptions{Sync: wal.SyncAlways, SegmentBytes: 256, CheckpointBytes: -1, FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 10; j++ {
			if _, err := d.InsertSets([][]Item{{Item(i), Item(j), Item(i + j)}}); err != nil {
				t.Fatal(err)
			}
		}
		pre := d.Stats().Log
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		post := d.Stats()
		if post.Log.Segments >= pre.Segments && pre.Segments > 1 {
			t.Fatalf("round %d: checkpoint kept %d of %d segments", i, post.Log.Segments, pre.Segments)
		}
		if post.Log.BytesSinceCheckpoint != 0 {
			t.Fatalf("round %d: %d bytes since checkpoint after checkpointing", i, post.Log.BytesSinceCheckpoint)
		}
		if post.CheckpointLSN != post.Log.LastLSN {
			t.Fatalf("round %d: watermark %d != last lsn %d", i, post.CheckpointLSN, post.Log.LastLSN)
		}
	}
	d.Close()
	names, err := mem.ReadDir("w")
	if err != nil {
		t.Fatal(err)
	}
	ckpts := 0
	for _, n := range names {
		if bytes.HasPrefix([]byte(n), []byte("checkpoint-")) {
			ckpts++
		}
	}
	if ckpts != 2 {
		t.Fatalf("retained %d checkpoints, want 2: %v", ckpts, names)
	}
	d2, err := OpenDurable("w", DurableOptions{FS: mem, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if st := d2.Stats(); st.Replay.Records != 0 {
		t.Fatalf("fresh checkpoint should cover everything; replayed %d", st.Replay.Records)
	}
	if got := d2.Index().NumRecords(); got != 60+30 {
		t.Fatalf("recovered %d records, want 90", got)
	}
}

// TestDurableBackgroundCheckpoint exercises the bytes-since-checkpoint
// trigger end to end: with a tiny threshold, inserting enough records
// must eventually produce a checkpoint without any explicit call.
func TestDurableBackgroundCheckpoint(t *testing.T) {
	coll := skewedCollection(t, 40, 25, 0.8, 2)
	idx, err := New(coll, WithKind(OIF), WithPageSize(512), WithBlockPostings(8))
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDurable(t.TempDir()+"/wal", idx, DurableOptions{
		Sync:            wal.SyncAlways,
		SegmentBytes:    512,
		CheckpointBytes: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 200; i++ {
		if _, err := d.InsertSets([][]Item{{Item(i % 25), Item((i * 7) % 25)}}); err != nil {
			t.Fatal(err)
		}
	}
	// The kick is asynchronous: give the background loop time to act.
	deadline := time.Now().Add(5 * time.Second)
	for d.Stats().Checkpoints == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if d.Stats().Checkpoints == 0 {
		t.Fatalf("no background checkpoint after 200 inserts over a 256-byte threshold")
	}
}

// TestDurableSecondBootReclaimsLog is the durable-level regression for
// the duplicate segment entry: the second boot of a freshly seeded
// directory recovers the record-free segment the first boot rotated
// into, and checkpoints must keep reclaiming log segments forever after
// — the original bug made the first TruncateThrough fail with ENOENT
// and every later one return early, growing the log without bound.
func TestDurableSecondBootReclaimsLog(t *testing.T) {
	coll := skewedCollection(t, 40, 25, 0.8, 9)
	idx, err := New(coll, WithKind(OIF), WithPageSize(512), WithBlockPostings(8))
	if err != nil {
		t.Fatal(err)
	}
	mem := wal.NewMemFS()
	d, err := NewDurable("w", idx, DurableOptions{Sync: wal.SyncAlways, CheckpointBytes: -1, FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	segFiles := func() []string {
		names, err := mem.ReadDir("w")
		if err != nil {
			t.Fatal(err)
		}
		var segs []string
		for _, n := range names {
			if bytes.HasPrefix([]byte(n), []byte("wal-")) {
				segs = append(segs, n)
			}
		}
		return segs
	}
	d2, err := OpenDurable("w", DurableOptions{Sync: wal.SyncAlways, CheckpointBytes: -1, FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if st, files := d2.Stats().Log, segFiles(); st.Segments != len(files) {
		t.Fatalf("boot 2 counts %d segments over %d files %v", st.Segments, len(files), files)
	}
	for round := 0; round < 3; round++ {
		for j := 0; j < 5; j++ {
			if _, err := d2.InsertSets([][]Item{{Item(round), Item(j)}}); err != nil {
				t.Fatalf("round %d: insert: %v", round, err)
			}
		}
		if err := d2.Checkpoint(); err != nil {
			t.Fatalf("round %d: checkpoint: %v", round, err)
		}
		st, files := d2.Stats().Log, segFiles()
		if st.Segments != 1 || len(files) != 1 {
			t.Fatalf("round %d: checkpoint left %d segments over %d files %v, want 1 over 1",
				round, st.Segments, len(files), files)
		}
	}
}

// TestDurableRejectsOversizedInsert: a set too large for one log record
// must be refused before anything is applied or logged — the whole
// batch, since acknowledging the earlier sets and then discovering the
// oversized one mid-apply would leave the index ahead of the log. The
// rejection must not wedge the log, and the directory must keep
// recovering cleanly.
func TestDurableRejectsOversizedInsert(t *testing.T) {
	coll := skewedCollection(t, 30, 25, 0.8, 11)
	idx, err := New(coll, WithKind(OIF), WithPageSize(512), WithBlockPostings(8))
	if err != nil {
		t.Fatal(err)
	}
	mem := wal.NewMemFS()
	d, err := NewDurable("w", idx, DurableOptions{Sync: wal.SyncAlways, CheckpointBytes: -1, FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	before := d.Index().NumRecords()
	ids, err := d.InsertSets([][]Item{{1, 2}, make([]Item, wal.MaxInsertItems+1)})
	if !errors.Is(err, wal.ErrRecordTooLarge) {
		t.Fatalf("oversized insert = %v, want ErrRecordTooLarge", err)
	}
	if len(ids) != 0 || d.Index().NumRecords() != before {
		t.Fatalf("rejected batch partially applied: ids %v, %d records (had %d)",
			ids, d.Index().NumRecords(), before)
	}
	// Not wedged: the log never saw the record.
	if _, err := d.InsertSets([][]Item{{3, 4}}); err != nil {
		t.Fatalf("insert after size rejection: %v", err)
	}
	// The other typed refusal, an out-of-domain item, comes from the
	// engine before the log sees anything.
	if _, err := d.InsertSets([][]Item{{Item(coll.DomainSize())}}); !errors.Is(err, dataset.ErrItemOutOfDomain) {
		t.Fatalf("out-of-domain insert = %v, want dataset.ErrItemOutOfDomain", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDurable("w", DurableOptions{CheckpointBytes: -1, FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.Index().NumRecords(); got != before+1 {
		t.Fatalf("recovered %d records, want %d", got, before+1)
	}
}

// TestNewDurableRefusesAdoptedIndex: an index already adopted by a
// Durable, open or closed, is refused a second one. Two logs over one
// index would each record ids the other's replay cannot reproduce.
func TestNewDurableRefusesAdoptedIndex(t *testing.T) {
	idx, err := New(skewedCollection(t, 30, 25, 0.8, 12), WithKind(OIF), WithPageSize(512), WithBlockPostings(8))
	if err != nil {
		t.Fatal(err)
	}
	mem := wal.NewMemFS()
	o := DurableOptions{CheckpointBytes: -1, FS: mem}
	d, err := NewDurable("a", idx, o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDurable("b", idx, o); err == nil {
		t.Fatalf("NewDurable adopted an index its first Durable still logs")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDurable("c", idx, o); err == nil {
		t.Fatalf("NewDurable adopted an index whose Durable is closed")
	}
	if _, err := idx.Insert([]Item{1}); !errors.Is(err, errDurableClosed) {
		t.Fatalf("insert after Close = %v, want the closed error", err)
	}
	// The refusals left no durable index behind them.
	for _, dir := range []string{"b", "c"} {
		if _, err := OpenDurable(dir, o); !errors.Is(err, ErrNoCheckpoint) {
			t.Fatalf("OpenDurable(%s) = %v, want ErrNoCheckpoint", dir, err)
		}
	}
}
