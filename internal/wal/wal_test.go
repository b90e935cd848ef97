package wal

import (
	"errors"
	"fmt"
	"io"
	"testing"
	"time"
)

// collect re-opens the log read-only-ish (apply accumulates) and
// returns the replayed records above after.
func collect(t *testing.T, fs FS, dir string, after uint64) ([]Record, ReplayStats) {
	t.Helper()
	var recs []Record
	l, stats, err := Open(dir, Options{FS: fs, Sync: SyncOS}, after, func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	l.Close()
	return recs, stats
}

func mustAppend(t *testing.T, l *Log, rec Record) uint64 {
	t.Helper()
	lsn, err := l.Append(rec)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	return lsn
}

func TestAppendReplayRoundTrip(t *testing.T) {
	fs := NewMemFS()
	l, stats, err := Open("w", Options{FS: fs}, 0, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if stats.Records != 0 || stats.Segments != 0 {
		t.Fatalf("fresh log replayed something: %+v", stats)
	}
	want := []Record{
		{Op: OpInsert, ID: 1, Set: []uint32{3, 17, 29}},
		{Op: OpInsert, ID: 2, Set: nil},
		{Op: OpDelete, ID: 1},
		{Op: OpInsert, ID: 3, Set: []uint32{0, 4294967295}},
	}
	for i, rec := range want {
		if lsn := mustAppend(t, l, rec); lsn != uint64(i+1) {
			t.Fatalf("record %d got lsn %d", i, lsn)
		}
	}
	if got := l.LastLSN(); got != 4 {
		t.Fatalf("LastLSN = %d, want 4", got)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	recs, rstats := collect(t, fs, "w", 0)
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i, rec := range recs {
		if rec.LSN != uint64(i+1) || rec.Op != want[i].Op || rec.ID != want[i].ID {
			t.Fatalf("record %d = %+v, want %+v", i, rec, want[i])
		}
		if fmt.Sprint(rec.Set) != fmt.Sprint(want[i].Set) && len(want[i].Set) > 0 {
			t.Fatalf("record %d set = %v, want %v", i, rec.Set, want[i].Set)
		}
	}
	if rstats.Truncated {
		t.Fatalf("clean log reported truncation")
	}
}

func TestWatermarkSkips(t *testing.T) {
	fs := NewMemFS()
	l, _, _ := Open("w", Options{FS: fs}, 0, nil)
	for i := 0; i < 10; i++ {
		mustAppend(t, l, Record{Op: OpInsert, ID: uint32(i + 1), Set: []uint32{uint32(i)}})
	}
	l.Close()
	recs, stats := collect(t, fs, "w", 6)
	if len(recs) != 4 || stats.Skipped != 6 {
		t.Fatalf("replayed %d (skipped %d), want 4 (6)", len(recs), stats.Skipped)
	}
	if recs[0].LSN != 7 {
		t.Fatalf("first replayed lsn = %d, want 7", recs[0].LSN)
	}
}

func TestRotationAndTruncateThrough(t *testing.T) {
	fs := NewMemFS()
	// Tiny segments force rotation every couple of records.
	l, _, _ := Open("w", Options{FS: fs, SegmentBytes: 128}, 0, nil)
	for i := 0; i < 20; i++ {
		mustAppend(t, l, Record{Op: OpInsert, ID: uint32(i + 1), Set: []uint32{1, 2, 3, 4}})
	}
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected multiple segments, got %d", st.Segments)
	}
	if err := l.TruncateThrough(10); err != nil {
		t.Fatalf("TruncateThrough: %v", err)
	}
	after := l.Stats()
	if after.Segments >= st.Segments {
		t.Fatalf("truncation removed nothing: %d -> %d", st.Segments, after.Segments)
	}
	l.Close()
	// Records 11..20 must still replay; 1..10 are gone with their
	// segments (the caller only truncates through a durable checkpoint).
	recs, _ := collect(t, fs, "w", 10)
	if len(recs) != 10 || recs[0].LSN != 11 || recs[9].LSN != 20 {
		t.Fatalf("post-truncation replay wrong: %d records, first %d", len(recs), recs[0].LSN)
	}
}

func TestTornTailTruncatedAndAppendable(t *testing.T) {
	fs := NewMemFS()
	l, _, _ := Open("w", Options{FS: fs}, 0, nil)
	for i := 0; i < 5; i++ {
		mustAppend(t, l, Record{Op: OpInsert, ID: uint32(i + 1), Set: []uint32{9, 8, 7}})
	}
	l.Close()

	// Cut the final record short at every possible byte boundary; replay
	// must stop at record 4 and subsequent appends must be recoverable.
	name := segmentName(1)
	full, ok := fs.Bytes("w/" + name)
	if !ok {
		t.Fatalf("segment missing")
	}
	frame := int64(frameHeaderBytes + 13 + 4 + 12)
	for cut := int64(1); cut < frame; cut += 7 {
		fs.WriteBytes("w/"+name, full[:int64(len(full))-cut])
		var recs []Record
		l2, stats, err := Open("w", Options{FS: fs}, 0, func(r Record) error {
			recs = append(recs, r)
			return nil
		})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		if len(recs) != 4 || !stats.Truncated {
			t.Fatalf("cut %d: replayed %d records (truncated=%v), want 4 (true)", cut, len(recs), stats.Truncated)
		}
		// The log must keep working: append after the torn tail, close,
		// and verify both old and new records replay.
		if _, err := l2.Append(Record{Op: OpDelete, ID: 2}); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		if err := l2.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
		recs2, _ := collect(t, fs, "w", 0)
		if len(recs2) != 5 || recs2[4].Op != OpDelete || recs2[4].LSN != 5 {
			t.Fatalf("cut %d: after re-append replay = %d records, last %+v", cut, len(recs2), recs2[len(recs2)-1])
		}
		fs.WriteBytes("w/"+name, full) // restore for the next cut
		// Remove the segments the recovery created so each iteration
		// starts from the same two-file state.
		names, _ := fs.ReadDir("w")
		for _, n := range names {
			if n != name {
				fs.Remove("w/" + n)
			}
		}
	}
}

func TestCorruptMiddleStopsReplay(t *testing.T) {
	fs := NewMemFS()
	l, _, _ := Open("w", Options{FS: fs}, 0, nil)
	for i := 0; i < 6; i++ {
		mustAppend(t, l, Record{Op: OpInsert, ID: uint32(i + 1), Set: []uint32{5, 6}})
	}
	l.Close()
	name := "w/" + segmentName(1)
	b, _ := fs.Bytes(name)
	// Flip a bit inside the third record's payload.
	frame := frameHeaderBytes + 13 + 4 + 8
	b[segHeaderBytes+2*frame+frameHeaderBytes+3] ^= 0x40
	fs.WriteBytes(name, b)
	recs, stats := collect(t, fs, "w", 0)
	if len(recs) != 2 || !stats.Truncated {
		t.Fatalf("replayed %d records (truncated=%v), want 2 (true)", len(recs), stats.Truncated)
	}
}

func TestCrashLosesUnsynced(t *testing.T) {
	fs := NewMemFS()
	// SyncOS never fsyncs: a power loss drops everything.
	l, _, _ := Open("w", Options{FS: fs, Sync: SyncOS}, 0, nil)
	for i := 0; i < 3; i++ {
		if _, err := l.Append(Record{Op: OpInsert, ID: uint32(i + 1)}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	fs.Crash()
	recs, _ := collect(t, fs, "w", 0)
	if len(recs) != 0 {
		t.Fatalf("unsynced records survived a crash: %d", len(recs))
	}

	// SyncAlways: every committed record survives.
	fs2 := NewMemFS()
	l2, _, _ := Open("w", Options{FS: fs2, Sync: SyncAlways}, 0, nil)
	for i := 0; i < 3; i++ {
		mustAppend(t, l2, Record{Op: OpInsert, ID: uint32(i + 1)})
	}
	fs2.Crash()
	recs2, _ := collect(t, fs2, "w", 0)
	if len(recs2) != 3 {
		t.Fatalf("committed records lost in crash: got %d, want 3", len(recs2))
	}
}

// TestRotateKeepsEmptyOpenSegment: rotating an open segment that holds
// no records — a checkpoint right after a reopen does — must not start a
// second segment under the same name, or the truncation that follows
// removes the open file and the next committed record dies with it.
func TestRotateKeepsEmptyOpenSegment(t *testing.T) {
	fs := NewMemFS()
	l, _, _ := Open("w", Options{FS: fs, Sync: SyncAlways}, 0, nil)
	mustAppend(t, l, Record{Op: OpInsert, ID: 1})
	l.Close()
	l, _, err := Open("w", Options{FS: fs, Sync: SyncAlways}, 0, func(Record) error { return nil })
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if err := l.Rotate(); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	if err := l.TruncateThrough(1); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	mustAppend(t, l, Record{Op: OpInsert, ID: 2})
	fs.Crash()
	if recs, _ := collect(t, fs, "w", 1); len(recs) != 1 {
		t.Fatalf("replayed %d records after the checkpoint, want the committed one", len(recs))
	}
}

func TestIntervalPolicyFlushes(t *testing.T) {
	fs := NewMemFS()
	l, _, err := Open("w", Options{FS: fs, Sync: SyncInterval, SyncEvery: time.Millisecond}, 0, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := l.Append(Record{Op: OpInsert, ID: 1}); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := l.Commit(); err != nil { // returns immediately under interval
		t.Fatalf("commit: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for l.Stats().Syncs == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background syncer never flushed")
		}
		time.Sleep(time.Millisecond)
	}
	fs.Crash()
	l.Close()
	recs, _ := collect(t, fs, "w", 0)
	if len(recs) != 1 {
		t.Fatalf("interval-flushed record lost: %d", len(recs))
	}
}

func TestWedgeOnAppendFailure(t *testing.T) {
	mem := NewMemFS()
	faulty := NewFaultyFS(mem, 0)
	l, _, err := Open("w", Options{FS: faulty, Sync: SyncAlways}, 0, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	mustAppend(t, l, Record{Op: OpInsert, ID: 1, Set: []uint32{1}})
	faulty.FailAt = faulty.Ops() + 1 // next mutating op fails
	if _, err := l.Append(Record{Op: OpInsert, ID: 2, Set: []uint32{2}}); err == nil {
		t.Fatalf("append with injected fault succeeded")
	}
	// Wedged: everything fails from here, with the injected error.
	if _, err := l.Append(Record{Op: OpDelete, ID: 1}); !errors.Is(err, ErrInjected) {
		t.Fatalf("wedged append = %v, want ErrInjected", err)
	}
	if err := l.Commit(); !errors.Is(err, ErrInjected) {
		t.Fatalf("wedged commit = %v, want ErrInjected", err)
	}
	if err := l.Err(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Err = %v", err)
	}
	if !l.Stats().Wedged {
		t.Fatalf("stats not wedged")
	}
	l.Close()
	// The acked record survives the crash; the failed one is absent.
	mem.Crash()
	recs, _ := collect(t, mem, "w", 0)
	if len(recs) != 1 || recs[0].ID != 1 {
		t.Fatalf("after wedge+crash: %d records", len(recs))
	}
}

func TestShortWriteTornTail(t *testing.T) {
	mem := NewMemFS()
	faulty := NewFaultyFS(mem, 0)
	faulty.ShortWrites = true
	l, _, err := Open("w", Options{FS: faulty, Sync: SyncAlways}, 0, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	mustAppend(t, l, Record{Op: OpInsert, ID: 1, Set: []uint32{1, 2, 3}})
	faulty.FailAt = faulty.Ops() + 1
	if _, err := l.Append(Record{Op: OpInsert, ID: 2, Set: []uint32{4, 5, 6}}); err == nil {
		t.Fatalf("short write reported success")
	}
	l.Close()
	// Half the frame landed; the file fsync never happened, but even if
	// the bytes reach disk the torn frame must be cut on recovery.
	for _, f := range []*MemFS{mem} {
		recs, stats := collect(t, f, "w", 0)
		if len(recs) != 1 || recs[0].ID != 1 {
			t.Fatalf("short write leaked a record: %d replayed", len(recs))
		}
		if !stats.Truncated {
			t.Fatalf("torn tail not reported")
		}
	}
}

func TestDropSyncsLosesAckedOnCrash(t *testing.T) {
	// DropSyncs models a disk that lies about fsync: with it, even
	// SyncAlways cannot keep its promise across power loss. The test
	// pins down that the MemFS durability model really is driven by the
	// sync calls and nothing else.
	mem := NewMemFS()
	faulty := NewFaultyFS(mem, 0)
	faulty.DropSyncs = true
	l, _, _ := Open("w", Options{FS: faulty, Sync: SyncAlways}, 0, nil)
	mustAppend(t, l, Record{Op: OpInsert, ID: 1})
	faulty.FailAt = faulty.Ops() + 1 // trip: syncs silently dropped now
	for i := 0; i < 3; i++ {
		l.Append(Record{Op: OpInsert, ID: uint32(i + 2)})
		l.Commit()
	}
	mem.Crash()
	recs, _ := collect(t, mem, "w", 0)
	if len(recs) != 1 {
		t.Fatalf("dropped-sync records survived: %d", len(recs))
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
		ok   bool
	}{
		{"always", SyncAlways, true},
		{"", SyncAlways, true},
		{"Interval", SyncInterval, true},
		{"os", SyncOS, true},
		{"none", SyncOS, true},
		{"sometimes", 0, false},
	} {
		got, err := ParseSyncPolicy(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if tc.ok && tc.in != "" && tc.in != "none" {
			if back, err := ParseSyncPolicy(got.String()); err != nil || back != got {
				t.Fatalf("%v does not round-trip its String", got)
			}
		}
	}
}

func TestWriteFileAtomic(t *testing.T) {
	fs := NewMemFS()
	fs.MkdirAll("d")
	write := func(content string) error {
		return WriteFileAtomic(fs, "d/file", func(w io.Writer) error {
			_, err := io.WriteString(w, content)
			return err
		})
	}
	if err := write("first"); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := write("second version"); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	fs.Crash()
	b, ok := fs.Bytes("d/file")
	if !ok || string(b) != "second version" {
		t.Fatalf("after crash: %q, %v", b, ok)
	}
	// A failing write must leave the previous content untouched and no
	// temp file behind.
	err := WriteFileAtomic(fs, "d/file", func(io.Writer) error { return errors.New("boom") })
	if err == nil {
		t.Fatalf("failing write succeeded")
	}
	if b, _ := fs.Bytes("d/file"); string(b) != "second version" {
		t.Fatalf("failed write clobbered the file: %q", b)
	}
	if names, _ := fs.ReadDir("d"); len(names) != 1 {
		t.Fatalf("temp file left behind: %v", names)
	}
}

func TestRecoveryCleansObsoleteSegments(t *testing.T) {
	fs := NewMemFS()
	l, _, _ := Open("w", Options{FS: fs, SegmentBytes: 128}, 0, nil)
	for i := 0; i < 20; i++ {
		mustAppend(t, l, Record{Op: OpInsert, ID: uint32(i + 1), Set: []uint32{1, 2, 3, 4}})
	}
	l.Close()
	before, _ := fs.ReadDir("w")
	// A checkpoint at LSN 20 that crashed before truncating: recovery
	// with after=20 must drop every fully-covered segment.
	l2, stats, err := Open("w", Options{FS: fs}, 20, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if stats.Records != 0 {
		t.Fatalf("watermarked records replayed: %d", stats.Records)
	}
	l2.Close()
	after, _ := fs.ReadDir("w")
	if len(after) >= len(before) {
		t.Fatalf("obsolete segments kept: %d -> %d files", len(before), len(after))
	}
}

// TestReopenWithoutAppends is the regression test for the duplicate
// segment entry: every Open rotates into segmentName(l.next), and when
// a restart left a record-free segment with that very name (any boot
// where nothing was appended to the newest segment), recovery used to
// keep it in l.segs alongside the entry the rotation adds — one file
// counted as two segments, which TruncateThrough then tried to remove
// twice, failing with ENOENT forever after the first checkpoint.
func TestReopenWithoutAppends(t *testing.T) {
	fs := NewMemFS()
	for boot := 0; boot < 3; boot++ {
		l, _, err := Open("w", Options{FS: fs}, 0, nil)
		if err != nil {
			t.Fatalf("boot %d: Open: %v", boot, err)
		}
		files, _ := fs.ReadDir("w")
		if st := l.Stats(); st.Segments != 1 || len(files) != 1 {
			t.Fatalf("boot %d: %d segments over %d files %v, want 1 over 1",
				boot, st.Segments, len(files), files)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("boot %d: Close: %v", boot, err)
		}
	}
	// The relisted file must stay reclaimable: append, rotate (as the
	// checkpoint manager does), truncate — twice, so a bookkeeping slip
	// in the first cycle cannot hide.
	l, _, err := Open("w", Options{FS: fs}, 0, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	for round := 0; round < 2; round++ {
		mustAppend(t, l, Record{Op: OpInsert, ID: uint32(round + 1), Set: []uint32{1, 2}})
		if err := l.Rotate(); err != nil {
			t.Fatalf("round %d: Rotate: %v", round, err)
		}
		if err := l.TruncateThrough(l.LastLSN()); err != nil {
			t.Fatalf("round %d: TruncateThrough: %v", round, err)
		}
		files, _ := fs.ReadDir("w")
		if st := l.Stats(); st.Segments != 1 || len(files) != 1 {
			t.Fatalf("round %d: %d segments over %d files %v, want 1 over 1",
				round, st.Segments, len(files), files)
		}
	}
}

// TestAppendRejectsOversizedRecord: a record whose payload exceeds
// MaxRecordBytes must be refused at append time — logging it would make
// the next replay truncate it (and everything after it) as a corrupt
// tail. The rejection must not wedge the log, and a record at exactly
// the bound must round-trip.
func TestAppendRejectsOversizedRecord(t *testing.T) {
	fs := NewMemFS()
	l, _, err := Open("w", Options{FS: fs}, 0, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := l.Append(Record{Op: OpInsert, ID: 1, Set: make([]uint32, MaxInsertItems+1)}); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("oversized append = %v, want ErrRecordTooLarge", err)
	}
	if err := l.Err(); err != nil {
		t.Fatalf("size rejection wedged the log: %v", err)
	}
	// Exactly the bound is appendable and replayable: the write-time
	// check and readRecord's bound must agree, or a record could be
	// accepted yet lost on recovery.
	mustAppend(t, l, Record{Op: OpInsert, ID: 1, Set: make([]uint32, MaxInsertItems)})
	mustAppend(t, l, Record{Op: OpDelete, ID: 1})
	l.Close()
	recs, stats := collect(t, fs, "w", 0)
	if len(recs) != 2 || stats.Truncated {
		t.Fatalf("replayed %d records (truncated=%v), want 2 clean", len(recs), stats.Truncated)
	}
	if len(recs[0].Set) != MaxInsertItems {
		t.Fatalf("max-size record replayed %d items, want %d", len(recs[0].Set), MaxInsertItems)
	}
}

// TestWedgedErrorMatchesSentinel: every error a wedged log returns must
// match ErrWedged under errors.Is — the serving layer classifies
// 503-vs-400 by it — while keeping the original cause on the chain.
func TestWedgedErrorMatchesSentinel(t *testing.T) {
	mem := NewMemFS()
	faulty := NewFaultyFS(mem, 0)
	l, _, err := Open("w", Options{FS: faulty}, 0, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	faulty.FailAt = faulty.Ops() + 1
	if _, err := l.Append(Record{Op: OpDelete, ID: 1}); err == nil {
		t.Fatalf("append over tripped fs succeeded")
	} else if !errors.Is(err, ErrWedged) || !errors.Is(err, ErrInjected) {
		t.Fatalf("wedge error %v must match both ErrWedged and its cause", err)
	}
	if err := l.Err(); !errors.Is(err, ErrWedged) {
		t.Fatalf("Err() = %v, want ErrWedged match", err)
	}
}
