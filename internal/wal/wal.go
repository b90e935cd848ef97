// Package wal is the write-ahead log behind setcontain's durability
// guarantee: a segmented, append-only log of insert/delete records,
// each frame CRC-guarded and stamped with a monotonic LSN. A mutation
// is acknowledged only after its record is durable per the configured
// fsync policy; Open replays the log tail on top of the newest
// checkpoint snapshot, tolerating a torn final record, so an
// acknowledged write survives any crash while an unacknowledged one may
// simply vanish.
//
// The file layout under the log directory is
//
//	wal-<first LSN, 16 hex digits>.seg   log segments, ascending
//	checkpoint-<LSN, 16 hex digits>.snap snapshot containers (owned by
//	                                     the checkpoint manager in
//	                                     package setcontain)
//
// Segments rotate at Options.SegmentBytes; the checkpoint manager folds
// the log into a fresh snapshot and calls TruncateThrough to drop the
// segments the snapshot covers. All file I/O goes through the FS
// abstraction so recovery tests can inject write failures (FaultyFS)
// and simulate power loss (MemFS).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SyncPolicy selects when appended records reach stable storage.
type SyncPolicy int

// The fsync policies. The zero value is SyncAlways: correctness by
// default, opt into speed.
const (
	// SyncAlways fsyncs before every Commit returns: an acknowledged
	// write survives power loss. The strongest and slowest policy.
	SyncAlways SyncPolicy = iota
	// SyncInterval acknowledges as soon as the record is written and
	// fsyncs in the background every Options.SyncEvery: a crash can lose
	// at most the last interval's acknowledged writes.
	SyncInterval
	// SyncOS never fsyncs during operation (only on Close): writes
	// survive a process kill as soon as the OS has them, but not power
	// loss. The fastest policy.
	SyncOS
)

// String names the policy as ParseSyncPolicy spells it.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOS:
		return "os"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParseSyncPolicy resolves the CLI/wire names "always", "interval",
// and "os".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always", "":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "os", "none":
		return SyncOS, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or os)", s)
}

// Options configures a Log. The zero value selects a 4 MB segment
// threshold, the SyncAlways policy, and the real filesystem.
type Options struct {
	// SegmentBytes is the rotation threshold: an append that would grow
	// the open segment beyond it starts a new segment. 0 selects 4 MB.
	SegmentBytes int64
	// Sync is the fsync policy.
	Sync SyncPolicy
	// SyncEvery is the background flush period under SyncInterval.
	// 0 selects 25ms.
	SyncEvery time.Duration
	// FS is the filesystem; nil selects OSFS.
	FS FS
}

func (o *Options) fill() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 25 * time.Millisecond
	}
	if o.FS == nil {
		o.FS = OSFS{}
	}
}

// Segment file header: magic, format version, the first LSN the
// segment may contain, and a CRC over version+firstLSN.
const (
	segMagic       = "OIFWAL01"
	segVersion     = 1
	segHeaderBytes = 8 + 4 + 8 + 4
)

// segment is one live log file.
type segment struct {
	name  string
	first uint64 // first LSN the segment may contain
	bytes int64
}

// Stats is a point-in-time observation of a Log, the raw material of
// the serving layer's WAL observability.
type Stats struct {
	// Segments counts live segment files, the open one included.
	Segments int
	// OpenSegmentBytes is the open segment's current size.
	OpenSegmentBytes int64
	// TotalBytes sums the live segments' sizes.
	TotalBytes int64
	// LastLSN is the newest appended record's LSN (0 before any append).
	LastLSN uint64
	// Appends counts records appended since Open.
	Appends int64
	// AppendedBytes counts frame bytes appended since Open.
	AppendedBytes int64
	// BytesSinceCheckpoint counts frame bytes appended since the last
	// NoteCheckpoint — the checkpoint manager's trigger input.
	BytesSinceCheckpoint int64
	// Syncs counts fsyncs issued since Open.
	Syncs int64
	// LastSyncNanos is the duration of the most recent fsync.
	LastSyncNanos int64
	// TotalSyncNanos sums all fsync durations since Open.
	TotalSyncNanos int64
	// Wedged reports whether an append or sync failure has poisoned the
	// log (see Log.Err).
	Wedged bool
}

// ReplayStats describes what Open recovered from the directory.
type ReplayStats struct {
	// Records is the number of records applied (LSN above the
	// watermark).
	Records int
	// Skipped is the number of valid records at or below the watermark,
	// already covered by the checkpoint snapshot.
	Skipped int
	// Segments is the number of segment files scanned.
	Segments int
	// Bytes is the total segment bytes scanned.
	Bytes int64
	// Truncated reports that a torn or corrupt tail was cut off.
	Truncated bool
	// Duration is the wall-clock replay time.
	Duration time.Duration
}

// Log is the append side of the write-ahead log. One goroutine may
// append at a time (callers serialize mutations anyway); Stats is safe
// to call concurrently with appends.
//
// A Log that fails to append or sync becomes wedged: the failed record
// was applied to the in-memory index but may not be in the log, so
// allowing further logged mutations would let the log diverge from the
// index it journals. Every call after the first failure returns the
// original error; the process must restart (and thereby recover from
// the log prefix) to resume mutating. Queries keep answering, but they
// can see writes the log does not hold: the one write whose append or
// fsync failed stays visible until the restart drops it, and a write
// applied and appended but not yet committed (its fsync runs after the
// index unlocks) is visible before it is durable, so a crash in that
// window loses a write a reader saw.
type Log struct {
	dir  string
	opts Options

	mu     sync.Mutex
	segs   []segment
	out    File
	next   uint64 // next LSN to assign
	dirty  bool   // unsynced bytes in the open segment
	wedged error
	closed bool
	buf    []byte

	appends       int64
	appendedBytes int64
	ckptBase      int64 // appendedBytes at the last NoteCheckpoint
	syncs         int64
	lastSyncNanos int64
	syncNanos     int64

	stop     chan struct{} // interval syncer shutdown
	syncDone chan struct{}
}

// Open recovers the log in dir and arms it for appending. Records with
// LSN above after — the newest checkpoint's watermark — are replayed
// through apply in LSN order; records at or below it are skipped as
// already covered. Replay stops cleanly at the first torn or corrupt
// record: the tail is truncated away (and any later segments removed)
// so subsequently appended records can never be shadowed by a bad tail
// on the next recovery. An error from apply aborts the open — it means
// the log and the index disagree, which truncation must not paper over.
func Open(dir string, o Options, after uint64, apply func(Record) error) (*Log, ReplayStats, error) {
	o.fill()
	fs := o.FS
	if err := fs.MkdirAll(dir); err != nil {
		return nil, ReplayStats{}, err
	}
	l := &Log{dir: dir, opts: o, next: after + 1}
	stats, err := l.recover(after, apply)
	if err != nil {
		return nil, stats, err
	}
	// Appends always start in a fresh segment: never after a truncated
	// tail, and never intermixed with replayed bytes, so one segment's
	// records are contiguous LSNs written by one process generation.
	if err := l.rotateLocked(); err != nil {
		return nil, stats, err
	}
	if o.Sync == SyncInterval {
		l.stop = make(chan struct{})
		l.syncDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, stats, nil
}

// segmentName spells the canonical segment file name for a first LSN.
func segmentName(first uint64) string { return fmt.Sprintf("wal-%016x.seg", first) }

// parseSegmentName extracts the first LSN from a segment file name.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// recover scans the directory's segments in LSN order, replaying the
// tail above the watermark and trimming torn or corrupt bytes.
func (l *Log) recover(after uint64, apply func(Record) error) (ReplayStats, error) {
	start := time.Now()
	var stats ReplayStats
	fs := l.opts.FS
	names, err := fs.ReadDir(l.dir)
	if err != nil {
		return stats, err
	}
	type segFile struct {
		name  string
		first uint64
	}
	var found []segFile
	for _, name := range names {
		if first, ok := parseSegmentName(name); ok {
			found = append(found, segFile{name, first})
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].first < found[j].first })

	// Segments wholly covered by the checkpoint — every record at or
	// below the watermark, which holds when the next segment starts at
	// or below watermark+1 — are left over from an interrupted
	// truncation; drop them without reading.
	live := found
	for len(live) > 1 && live[1].first <= after+1 {
		fs.Remove(filepath.Join(l.dir, live[0].name))
		live = live[1:]
	}

	prev := uint64(0) // last LSN seen across segments; strict ascent required
	stop := false
	for _, sf := range live {
		path := filepath.Join(l.dir, sf.name)
		if stop {
			// A torn or corrupt record ends the log: anything in later
			// segments was appended after the bad bytes — an ordering no
			// single crash produces — and replay must not resurrect it.
			fs.Remove(path)
			stats.Truncated = true
			continue
		}
		f, err := fs.Open(path)
		if err != nil {
			return stats, err
		}
		good, segStats, serr := replaySegment(f, sf.first, after, &prev, apply)
		f.Close()
		stats.Records += segStats.Records
		stats.Skipped += segStats.Skipped
		stats.Bytes += segStats.Bytes
		stats.Segments++
		switch {
		case serr == nil:
			l.segs = append(l.segs, segment{name: sf.name, first: sf.first, bytes: good})
		case serr == io.EOF: // torn or corrupt tail: trim it away
			stats.Truncated = true
			stop = true
			if good <= segHeaderBytes {
				// Nothing but a (possibly torn) header survives: the file
				// carries no records, so drop it entirely.
				fs.Remove(path)
			} else {
				if err := fs.Truncate(path, good); err != nil {
					return stats, err
				}
				l.segs = append(l.segs, segment{name: sf.name, first: sf.first, bytes: good})
			}
		default:
			return stats, serr
		}
	}
	if prev > after {
		l.next = prev + 1
	}
	// A record-free tail segment is the leftover of a prior generation's
	// rotation (Open and the checkpoint manager both rotate; a shutdown
	// before any further append leaves just the header). Drop it from the
	// live list: Open is about to rotate into segmentName(l.next) — the
	// very same file — and keeping both entries would count one file
	// twice and make TruncateThrough remove it twice, failing forever on
	// the second attempt.
	if n := len(l.segs); n > 0 {
		if tail := l.segs[n-1]; tail.bytes == segHeaderBytes && tail.first == l.next {
			l.segs = l.segs[:n-1]
		}
	}
	// Seed the byte counter with the recovered segments' record bytes so
	// BytesSinceCheckpoint keeps counting un-checkpointed work across
	// restarts instead of resetting with the process.
	for _, s := range l.segs {
		l.appendedBytes += s.bytes - segHeaderBytes
	}
	stats.Duration = time.Since(start)
	return stats, nil
}

// replaySegment streams one segment: validates the header, then decodes
// records until the end. Records with LSN at or below the watermark are
// skipped; the rest pass through apply. prev carries the last LSN seen
// across segments — LSNs must ascend strictly, a rewound or repeated
// sequence marks the bytes as corruption, not a crash artifact. The
// return is the offset after the last valid record (the truncation
// point), plus io.EOF when the segment ended early or invalidly — the
// signal to stop replay. A non-EOF error is an apply failure.
func replaySegment(r io.Reader, first, after uint64, prev *uint64, apply func(Record) error) (good int64, stats ReplayStats, err error) {
	var hdr [segHeaderBytes]byte
	if _, rerr := io.ReadFull(r, hdr[:]); rerr != nil {
		return 0, stats, io.EOF
	}
	stats.Bytes = segHeaderBytes
	if string(hdr[:8]) != segMagic ||
		binary.LittleEndian.Uint32(hdr[8:]) != segVersion ||
		binary.LittleEndian.Uint64(hdr[12:]) != first ||
		binary.LittleEndian.Uint32(hdr[20:]) != crc32.ChecksumIEEE(hdr[8:20]) {
		return 0, stats, io.EOF
	}
	good = segHeaderBytes
	for {
		rec, frame, rerr := readRecord(r)
		if rerr != nil {
			if rerr == io.EOF {
				return good, stats, nil
			}
			// Torn or corrupt: stop here, never applying the bad record.
			return good, stats, io.EOF
		}
		stats.Bytes += frame
		if rec.LSN <= *prev || rec.LSN < first {
			return good, stats, io.EOF
		}
		if rec.LSN <= after {
			stats.Skipped++
		} else {
			if apply != nil {
				if aerr := apply(rec); aerr != nil {
					return good, stats, fmt.Errorf("wal: replaying %s lsn %d: %w", rec.Op, rec.LSN, aerr)
				}
			}
			stats.Records++
		}
		*prev = rec.LSN
		good += frame
	}
}

// rotateLocked finishes the open segment and starts a fresh one whose
// first LSN is the next to be assigned. An open segment without records
// is already that segment: a second one would take its file name, and a
// truncation dropping the first entry would remove the open file.
// Callers hold l.mu (or own the log exclusively during Open).
func (l *Log) rotateLocked() error {
	fs := l.opts.FS
	if l.out != nil && l.segs[len(l.segs)-1].first == l.next {
		return nil
	}
	if l.out != nil {
		if l.dirty && l.opts.Sync != SyncOS {
			if err := l.syncOutLocked(); err != nil {
				return err
			}
		}
		if err := l.out.Close(); err != nil {
			return l.wedge(err)
		}
		l.out = nil
	}
	name := segmentName(l.next)
	f, err := fs.Create(filepath.Join(l.dir, name))
	if err != nil {
		return l.wedge(err)
	}
	var hdr [segHeaderBytes]byte
	copy(hdr[:8], segMagic)
	binary.LittleEndian.PutUint32(hdr[8:], segVersion)
	binary.LittleEndian.PutUint64(hdr[12:], l.next)
	binary.LittleEndian.PutUint32(hdr[20:], crc32.ChecksumIEEE(hdr[8:20]))
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return l.wedge(err)
	}
	if l.opts.Sync != SyncOS {
		// The new segment's entry must be durable before any record in it
		// is acknowledged; the header bytes ride along with the first
		// record's fsync.
		if err := fs.SyncDir(l.dir); err != nil {
			f.Close()
			return l.wedge(err)
		}
	}
	l.out = f
	l.dirty = l.opts.Sync == SyncOS // header bytes unsynced by choice
	l.segs = append(l.segs, segment{name: name, first: l.next, bytes: segHeaderBytes})
	return nil
}

// ErrWedged marks every error a wedged log returns: classify with
// errors.Is(err, ErrWedged) to distinguish a server-side durability
// fault (the process must restart to recover) from a request's own
// error. The underlying cause stays on the chain via Unwrap.
var ErrWedged = errors.New("wal: log wedged")

// wedgedError carries the wedge cause while matching ErrWedged under
// errors.Is.
type wedgedError struct{ cause error }

func (e *wedgedError) Error() string   { return ErrWedged.Error() + ": " + e.cause.Error() }
func (e *wedgedError) Unwrap() []error { return []error{ErrWedged, e.cause} }

// wedge records the first fatal error and returns it; every subsequent
// operation fails with the same error.
func (l *Log) wedge(err error) error {
	if l.wedged == nil {
		l.wedged = &wedgedError{cause: err}
	}
	return l.wedged
}

// Err returns the error that wedged the log, or nil while it is
// healthy.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.wedged
}

// Append assigns the next LSN to rec and writes its frame to the open
// segment, rotating first when the segment is full. It does NOT wait
// for durability — callers append a batch, then Commit once. The
// assigned LSN is returned.
func (l *Log) Append(rec Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wedged != nil {
		return 0, l.wedged
	}
	if l.closed {
		return 0, fmt.Errorf("wal: log closed")
	}
	if n := recordPayloadBytes(rec); n > MaxRecordBytes {
		// Refuse before writing: replay enforces the same bound, so an
		// oversized record that slipped into the log would be truncated
		// away as a corrupt tail on the next recovery — along with every
		// acknowledged record behind it. The log stays healthy: nothing
		// was written.
		return 0, fmt.Errorf("%w: %d-byte payload (op %s, %d items; max %d items per insert)",
			ErrRecordTooLarge, n, rec.Op, len(rec.Set), MaxInsertItems)
	}
	rec.LSN = l.next
	l.buf = appendRecord(l.buf[:0], rec)
	open := &l.segs[len(l.segs)-1]
	if open.bytes+int64(len(l.buf)) > l.opts.SegmentBytes && open.bytes > segHeaderBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
		open = &l.segs[len(l.segs)-1]
	}
	n, err := l.out.Write(l.buf)
	open.bytes += int64(n)
	if err != nil {
		return 0, l.wedge(err)
	}
	l.next++
	l.dirty = true
	l.appends++
	l.appendedBytes += int64(n)
	return rec.LSN, nil
}

// Commit makes every appended record durable per the sync policy:
// SyncAlways fsyncs now and returns the fsync's outcome; SyncInterval
// and SyncOS return immediately, their durability riding on the
// background flusher and the OS respectively. Acknowledge a mutation to
// a client only after Commit returns nil.
func (l *Log) Commit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wedged != nil {
		return l.wedged
	}
	if l.opts.Sync != SyncAlways {
		return nil
	}
	return l.syncOutLocked()
}

// Sync forces an fsync regardless of policy (shutdown, tests).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wedged != nil {
		return l.wedged
	}
	return l.syncOutLocked()
}

func (l *Log) syncOutLocked() error {
	if !l.dirty || l.out == nil {
		return nil
	}
	start := time.Now()
	if err := l.out.Sync(); err != nil {
		return l.wedge(err)
	}
	d := time.Since(start).Nanoseconds()
	l.syncs++
	l.lastSyncNanos = d
	l.syncNanos += d
	l.dirty = false
	return nil
}

// syncLoop is the SyncInterval background flusher.
func (l *Log) syncLoop() {
	defer close(l.syncDone)
	t := time.NewTicker(l.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			if l.wedged == nil && !l.closed {
				l.syncOutLocked() // a failure wedges; mutators see it next call
			}
			l.mu.Unlock()
		}
	}
}

// Rotate finishes the open segment and starts a fresh one. The
// checkpoint manager calls it before snapshotting so TruncateThrough
// can drop every pre-checkpoint segment.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wedged != nil {
		return l.wedged
	}
	return l.rotateLocked()
}

// TruncateThrough removes the segments whose every record has LSN at or
// below mark — safe once a snapshot covering mark is durable. The open
// segment is never removed.
func (l *Log) TruncateThrough(mark uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	fs := l.opts.FS
	removed := false
	for len(l.segs) > 1 && l.segs[1].first <= mark+1 {
		// A missing file is already the desired end state (an interrupted
		// earlier truncation, say); drop the entry and keep reclaiming.
		if err := fs.Remove(filepath.Join(l.dir, l.segs[0].name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
		l.segs = l.segs[1:]
		removed = true
	}
	if removed && l.opts.Sync != SyncOS {
		return fs.SyncDir(l.dir)
	}
	return nil
}

// NoteCheckpoint resets the bytes-since-checkpoint counter; the
// checkpoint manager calls it after a successful checkpoint.
func (l *Log) NoteCheckpoint() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ckptBase = l.appendedBytes
}

// LastLSN returns the newest assigned LSN (0 before any append).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - 1
}

// Stats returns a point-in-time observation.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	var total int64
	for _, s := range l.segs {
		total += s.bytes
	}
	st := Stats{
		Segments:             len(l.segs),
		TotalBytes:           total,
		LastLSN:              l.next - 1,
		Appends:              l.appends,
		AppendedBytes:        l.appendedBytes,
		BytesSinceCheckpoint: l.appendedBytes - l.ckptBase,
		Syncs:                l.syncs,
		LastSyncNanos:        l.lastSyncNanos,
		TotalSyncNanos:       l.syncNanos,
		Wedged:               l.wedged != nil,
	}
	if n := len(l.segs); n > 0 {
		st.OpenSegmentBytes = l.segs[n-1].bytes
	}
	return st
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Close flushes and closes the open segment. A wedged log closes its
// file without flushing; Close reports the wedge error in that case so
// shutdown paths surface it.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	stop := l.stop
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-l.syncDone
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	if l.wedged == nil {
		err = l.syncOutLocked()
	} else {
		err = l.wedged
	}
	if l.out != nil {
		if cerr := l.out.Close(); err == nil {
			err = cerr
		}
		l.out = nil
	}
	return err
}
