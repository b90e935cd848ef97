package setcontain

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/wal"
)

// durableKinds are the engine configurations the recovery property is
// proven over: a single OIF engine (sequential id assignment) and a
// sharded engine (round-robin id assignment) — the two id-assignment
// disciplines replay must reproduce exactly.
var durableKinds = []struct {
	name string
	opts []Option
}{
	{"OIF", []Option{WithKind(OIF), WithPageSize(512), WithBlockPostings(8)}},
	{"Sharded", []Option{WithKind(Sharded), WithShards(3), WithPageSize(512), WithBlockPostings(8)}},
}

// durableDigest folds a fixed query workload's answers into one hash,
// so two indexes answer-compare in a single uint64.
func durableDigest(t *testing.T, idx *Index, queries []Query) uint64 {
	t.Helper()
	h := fnv.New64a()
	var word [8]byte
	for qi, q := range queries {
		ids, err := idx.Eval(q)
		if err != nil {
			t.Fatalf("digest query %d (%s): %v", qi, q, err)
		}
		binary.LittleEndian.PutUint64(word[:], uint64(len(ids))^uint64(qi)<<32)
		h.Write(word[:])
		for _, id := range ids {
			binary.LittleEndian.PutUint32(word[:4], id)
			h.Write(word[:4])
		}
	}
	return h.Sum64()
}

// durableStep is one scripted mutation. Every step is a single-record
// mutation (or a whole-index operation), so a step is either fully
// acknowledged or not acknowledged at all — which is exactly the
// granularity the acked-prefix recovery property is stated at.
type durableStep struct {
	op  byte   // 'i' insert, 'd' delete, 'm' merge, 'c' checkpoint
	set []Item // 'i'
	del int    // 'd': index into the ids acked so far
}

// durableScript builds a deterministic mutation script: mostly inserts,
// with deletes of earlier inserts, merges, and explicit checkpoints
// mixed in so the fault sweep lands mid-append, mid-checkpoint, and
// mid-truncate alike.
func durableScript(steps, domain int, seed int64) []durableStep {
	rng := rand.New(rand.NewSource(seed))
	z := dataset.NewZipf(domain, 0.8)
	script := make([]durableStep, 0, steps)
	inserts := 0
	for i := 0; i < steps; i++ {
		switch r := rng.Intn(10); {
		case r < 6 || inserts == 0:
			script = append(script, durableStep{op: 'i', set: z.SampleDistinct(rng, 1+rng.Intn(6))})
			inserts++
		case r < 8:
			script = append(script, durableStep{op: 'd', del: rng.Intn(inserts)})
		case r == 8:
			script = append(script, durableStep{op: 'm'})
		default:
			script = append(script, durableStep{op: 'c'})
		}
	}
	return script
}

// runDurableScript applies the script to d, recording what was
// acknowledged: for each acked insert the assigned id, for each acked
// delete the deleted id. Steps keep being attempted after a failure
// (they fail fast on the wedged log); a logical mutation acknowledged
// after the fault tripped would break the acked-prefix property, so
// that is asserted here.
func runDurableScript(t *testing.T, d *Durable, script []durableStep, faulty *wal.FaultyFS) (acked []durableStep, ackedIDs []uint32) {
	t.Helper()
	for si, st := range script {
		tripped := faulty != nil && faulty.Tripped()
		switch st.op {
		case 'i':
			ids, err := d.InsertSets([][]Item{st.set})
			if err == nil {
				if tripped {
					t.Fatalf("step %d: insert acked after fault tripped", si)
				}
				if len(ids) != 1 {
					t.Fatalf("step %d: %d ids for one set", si, len(ids))
				}
				acked = append(acked, st)
				ackedIDs = append(ackedIDs, ids[0])
			}
		case 'd':
			if st.del >= len(ackedIDs) {
				continue // its insert was never acked on this run
			}
			id := ackedIDs[st.del]
			err := d.DeleteIDs([]uint32{id})
			switch {
			case err == nil:
				if tripped {
					t.Fatalf("step %d: delete acked after fault tripped", si)
				}
				rec := st
				rec.del = int(id) // resolve to the concrete id for replaying onto the reference
				acked = append(acked, rec)
			case errors.Is(err, wal.ErrInjected) || tripped:
				// expected failure mode under fault
			default:
				// Deleting an already-deleted id is a legitimate engine
				// error when the script deletes the same slot twice.
			}
		case 'm':
			if err := d.MergeDelta(); err == nil {
				acked = append(acked, st)
			}
		case 'c':
			d.Checkpoint() // failure tolerated: durability never depends on it
		}
	}
	return acked, ackedIDs
}

// applyReference replays the acked script onto a freshly built index,
// verifying id assignment determinism along the way.
func applyReference(t *testing.T, idx *Index, acked []durableStep, ackedIDs []uint32) {
	t.Helper()
	next := 0
	for _, st := range acked {
		switch st.op {
		case 'i':
			id, err := idx.Insert(st.set)
			if err != nil {
				t.Fatalf("reference insert: %v", err)
			}
			if id != ackedIDs[next] {
				t.Fatalf("reference assigned id %d, durable run got %d", id, ackedIDs[next])
			}
			next++
		case 'd':
			if err := idx.Delete(uint32(st.del)); err != nil {
				t.Fatalf("reference delete %d: %v", st.del, err)
			}
		case 'm':
			if err := idx.MergeDelta(); err != nil {
				t.Fatalf("reference merge: %v", err)
			}
		}
	}
}

// TestDurableRecoveryProperty is the subsystem's acceptance test: crash
// the process at every possible filesystem operation — mid-append,
// mid-checkpoint-write, mid-truncation — via a FaultyFS over a MemFS
// with power-loss semantics, then recover and require the index to
// answer byte-identically to a never-crashed reference holding exactly
// the acknowledged mutations. Under -fsync always, an acked write never
// vanishes and an un-acked one never materializes.
func TestDurableRecoveryProperty(t *testing.T) {
	const domain = 40
	coll := skewedCollection(t, 150, domain, 0.8, 7)
	script := durableScript(70, domain, 8)
	queries := zipfWorkload(40, domain, 0.8, 9)

	for _, tc := range durableKinds {
		t.Run(tc.name, func(t *testing.T) {
			// Dry run without faults: establishes the op budget to sweep and
			// the fault-free digest.
			totalOps := runDurableOnce(t, coll, script, queries, tc.opts, 0)
			if totalOps < 20 {
				t.Fatalf("script exercised only %d fs ops", totalOps)
			}
			step := int64(1)
			if testing.Short() {
				step = 7
			}
			for failAt := int64(1); failAt <= totalOps; failAt += step {
				runDurableOnce(t, coll, script, queries, tc.opts, failAt)
			}
		})
	}
}

// runDurableOnce executes one crash-recovery round at the given fault
// point (0 = no fault) and returns the number of filesystem operations
// the run attempted.
func runDurableOnce(t *testing.T, coll *Collection, script []durableStep, queries []Query, opts []Option, failAt int64) int64 {
	t.Helper()
	mem := wal.NewMemFS()
	faulty := wal.NewFaultyFS(mem, failAt)
	dopts := DurableOptions{
		SegmentBytes:    512, // rotate every few records
		Sync:            wal.SyncAlways,
		CheckpointBytes: -1, // explicit checkpoints only: deterministic op counts
		FS:              faulty,
	}

	idx, err := New(coll, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var acked []durableStep
	var ackedIDs []uint32
	d, err := NewDurable("w", idx, dopts)
	if err == nil {
		acked, ackedIDs = runDurableScript(t, d, script, faulty)
		d.Close()
	} else if failAt == 0 {
		t.Fatalf("fault-free bootstrap failed: %v", err)
	}
	// Power loss: volatile bytes gone. Recover on the bare MemFS.
	mem.Crash()
	d2, err := OpenDurable("w", DurableOptions{Sync: wal.SyncAlways, CheckpointBytes: -1, FS: mem})
	if errors.Is(err, ErrNoCheckpoint) {
		// The bootstrap's initial checkpoint never became durable; nothing
		// can have been acknowledged past it.
		if len(acked) != 0 {
			t.Fatalf("failAt %d: %d acked mutations but no checkpoint survived", failAt, len(acked))
		}
		return faulty.Ops()
	}
	if err != nil {
		t.Fatalf("failAt %d: recovery failed: %v", failAt, err)
	}
	defer d2.Close()

	ref, err := New(coll, opts...)
	if err != nil {
		t.Fatal(err)
	}
	applyReference(t, ref, acked, ackedIDs)
	if got, want := durableDigest(t, d2.Index(), queries), durableDigest(t, ref, queries); got != want {
		t.Fatalf("failAt %d: recovered digest %016x != reference %016x (%d acked mutations)",
			failAt, got, want, len(acked))
	}
	return faulty.Ops()
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
	want := durableDigest(t, d.Index(), queries)
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
	if got := durableDigest(t, d2.Index(), queries); got != want {
		t.Fatalf("recovered digest %016x != pre-shutdown %016x", got, want)
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
