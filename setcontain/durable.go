package setcontain

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wal"
)

// Durable binds an Index, its Store, and a write-ahead log into the
// never-lose-an-acknowledged-write mutation path. The log hangs off the
// index's one mutation path (see Index), so every insert and delete —
// made through the Durable, the Index, its Store or any other Store
// over it — is applied to the live index, appended to the log, and made
// durable per the configured fsync policy before the call returns;
// OpenDurable restores the newest checkpoint snapshot and replays the
// log tail on top, so a crash at any moment — mid-append, mid-
// checkpoint, mid-truncate — recovers exactly the acknowledged prefix.
//
// The directory layout is the wal package's:
//
//	wal-<first LSN>.seg        log segments
//	checkpoint-<LSN>.snap      snapshot containers (Index.Save format),
//	                           the hex suffix being the LSN watermark
//	                           the snapshot covers
//
// A checkpoint manager folds the log into a fresh snapshot — written
// crash-atomically (temp file, fsync, rename, directory fsync) — and
// truncates the covered segments, triggered by bytes appended since the
// last checkpoint (DurableOptions.CheckpointBytes) or by an explicit
// Checkpoint call. The two newest checkpoints are retained so recovery
// can fall back one generation if the newest is damaged.
//
// Concurrency: the Index's lock is the only lock on its state. A
// mutation batch applies and appends under its write lock; a checkpoint
// serializes the index and marks the log under its read lock, so the
// mark matches the snapshot; queries flow through the Store untouched
// (see Index). When a log append or fsync fails the log wedges — every
// later mutation returns the original error — because the failed
// mutation is applied in memory but possibly missing from the log, and
// continuing would let the two diverge. Restarting the process recovers
// the logged prefix.
type Durable struct {
	idx   *Index
	store *Store
	log   *wal.Log
	dir   string
	o     DurableOptions

	// closed is set by Close under the Index's write lock and read under
	// its lock by Index.mutate and Checkpoint, so no append or rotation
	// reaches a closed log.
	closed bool

	// ckpt serializes whole checkpoint cycles (manual and background) so
	// their file operations never interleave; it nests outside the
	// Index's lock.
	ckpt sync.Mutex

	mark   atomic.Uint64 // newest durable checkpoint's LSN watermark
	replay wal.ReplayStats

	checkpoints     atomic.Int64
	checkpointNanos atomic.Int64

	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

// DurableOptions configures OpenDurable and NewDurable. The zero value
// selects the snapshot's recorded cache budget, 4 MB segments, the
// always-fsync policy, a 64 MB checkpoint trigger, and the real
// filesystem.
type DurableOptions struct {
	// CachePages is the per-reader page-cache budget, as in NewStore and
	// WithCachePages (0 keeps the snapshot's recorded budget).
	CachePages int
	// SegmentBytes is the log segment rotation threshold (0 = 4 MB).
	SegmentBytes int64
	// Sync is the fsync policy governing when a mutation is acknowledged.
	Sync wal.SyncPolicy
	// SyncEvery is the background flush period under SyncInterval.
	SyncEvery time.Duration
	// CheckpointBytes triggers a background checkpoint once that many log
	// bytes accumulate since the last one. 0 selects 64 MB; negative
	// disables automatic checkpoints (explicit Checkpoint still works).
	CheckpointBytes int64
	// FS is the filesystem; nil selects the real one. Tests inject
	// wal.MemFS / wal.FaultyFS here.
	FS wal.FS
	// Logf, when set, receives replay and checkpoint progress lines.
	Logf func(format string, args ...any)
}

func (o *DurableOptions) fill() {
	if o.CheckpointBytes == 0 {
		o.CheckpointBytes = 64 << 20
	}
	if o.FS == nil {
		o.FS = wal.OSFS{}
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

func (o DurableOptions) walOptions() wal.Options {
	return wal.Options{
		SegmentBytes: o.SegmentBytes,
		Sync:         o.Sync,
		SyncEvery:    o.SyncEvery,
		FS:           o.FS,
	}
}

// ErrNoCheckpoint reports a WAL directory with no checkpoint snapshot:
// OpenDurable cannot restore an index from it. Callers bootstrap by
// building an Index some other way (dataset, plain snapshot) and
// handing it to NewDurable.
var ErrNoCheckpoint = errors.New("setcontain: no checkpoint in WAL directory")

// checkpointName spells the canonical checkpoint file name for an LSN
// watermark.
func checkpointName(mark uint64) string { return fmt.Sprintf("checkpoint-%016x.snap", mark) }

// parseCheckpointName extracts the watermark from a checkpoint name.
func parseCheckpointName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "checkpoint-") || !strings.HasSuffix(name, ".snap") {
		return 0, false
	}
	v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "checkpoint-"), ".snap"), 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// listCheckpoints returns the directory's checkpoint watermarks in
// descending order (newest first), cleaning up any abandoned temp files
// from a checkpoint that crashed mid-write.
func listCheckpoints(fs wal.FS, dir string) ([]uint64, error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var marks []uint64
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			fs.Remove(filepath.Join(dir, name))
			continue
		}
		if mark, ok := parseCheckpointName(name); ok {
			marks = append(marks, mark)
		}
	}
	sort.Slice(marks, func(i, j int) bool { return marks[i] > marks[j] })
	return marks, nil
}

// OpenDurable restores the index in dir: the newest loadable checkpoint
// snapshot, then the log tail above its watermark replayed on top. A
// directory without any checkpoint returns ErrNoCheckpoint. A damaged
// newest checkpoint falls back to the retained previous one (the log
// still holds everything above the older watermark, so no acknowledged
// write is lost); replay stops cleanly at a torn final record.
func OpenDurable(dir string, o DurableOptions) (*Durable, error) {
	o.fill()
	fs := o.FS
	if err := fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	marks, err := listCheckpoints(fs, dir)
	if err != nil {
		return nil, err
	}
	if len(marks) == 0 {
		return nil, ErrNoCheckpoint
	}
	var (
		idx     *Index
		mark    uint64
		loadErr error
	)
	for _, m := range marks {
		f, err := fs.Open(filepath.Join(dir, checkpointName(m)))
		if err != nil {
			loadErr = err
			continue
		}
		ix, err := Open(f, WithCachePages(o.CachePages))
		f.Close()
		if err != nil {
			o.Logf("setcontain: checkpoint %s unreadable, falling back: %v", checkpointName(m), err)
			loadErr = err
			continue
		}
		idx, mark = ix, m
		break
	}
	if idx == nil {
		return nil, fmt.Errorf("setcontain: no loadable checkpoint: %w", loadErr)
	}
	// The log attaches after replay: replay applies through Index.Insert
	// and Delete, which would otherwise log every record again.
	d := &Durable{idx: idx, store: NewStore(idx, o.CachePages), dir: dir, o: o}
	d.mark.Store(mark)
	d.log, d.replay, err = wal.Open(dir, o.walOptions(), mark, func(rec wal.Record) error {
		return applyRecord(idx, rec)
	})
	if err != nil {
		return nil, fmt.Errorf("setcontain: replaying log: %w", err)
	}
	if d.replay.Records > 0 || d.replay.Truncated {
		o.Logf("setcontain: replayed %d log records in %v (%d skipped, truncated=%v)",
			d.replay.Records, d.replay.Duration.Round(time.Microsecond), d.replay.Skipped, d.replay.Truncated)
	}
	d.attach()
	return d, nil
}

// NewDurable initializes dir as the durable home of idx: an initial
// checkpoint of the index as handed in, then an empty log. It refuses a
// directory that already holds a checkpoint — that is an existing
// durable index, and silently re-seeding it would discard its log; use
// OpenDurable there. It refuses an index that already has a Durable,
// closed or not: two logs over one index would each record ids the
// other's replay cannot reproduce. Stale log segments without any
// checkpoint (an interrupted bootstrap) are cleared.
func NewDurable(dir string, idx *Index, o DurableOptions) (*Durable, error) {
	o.fill()
	fs := o.FS
	if err := fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	marks, err := listCheckpoints(fs, dir)
	if err != nil {
		return nil, err
	}
	if len(marks) > 0 {
		return nil, fmt.Errorf("setcontain: %s already holds a durable index (checkpoint %s); open it with OpenDurable",
			dir, checkpointName(marks[0]))
	}
	// The write lock, held to the end, keeps every mutation out between
	// the initial checkpoint and the log's attachment.
	idx.mu.Lock()
	defer idx.mu.Unlock()
	if idx.dur != nil {
		return nil, fmt.Errorf("setcontain: the index already has a Durable (in %s)", idx.dur.dir)
	}
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		if strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg") {
			if err := fs.Remove(filepath.Join(dir, name)); err != nil {
				return nil, err
			}
		}
	}
	// The initial checkpoint makes the bootstrap itself crash-atomic:
	// until the rename lands the directory still has no checkpoint, and a
	// rerun starts over.
	if err := wal.WriteFileAtomic(fs, filepath.Join(dir, checkpointName(0)), idx.eng.Save); err != nil {
		return nil, fmt.Errorf("setcontain: writing initial checkpoint: %w", err)
	}
	d := &Durable{idx: idx, store: NewStore(idx, o.CachePages), dir: dir, o: o}
	if d.log, _, err = wal.Open(dir, o.walOptions(), 0, nil); err != nil {
		return nil, err
	}
	d.attach()
	return d, nil
}

// attach makes d's log the index's — with the write lock held, or the
// index not yet shared — and starts the background checkpointer.
func (d *Durable) attach() {
	d.idx.dur = d
	if d.o.CheckpointBytes > 0 {
		d.kick = make(chan struct{}, 1)
		d.stop = make(chan struct{})
		d.done = make(chan struct{})
		go d.checkpointLoop()
	}
}

// applyRecord replays one logged mutation into idx. Replay re-runs the
// engine's own insert path, so the id it assigns must equal the id the
// record captured at logging time — id assignment is deterministic
// (sequential for single engines, round-robin for sharded) and a
// mismatch means the log and checkpoint disagree about history, which
// must surface, not be papered over.
func applyRecord(idx *Index, rec wal.Record) error {
	switch rec.Op {
	case wal.OpInsert:
		id, err := idx.Insert(rec.Set)
		if err != nil {
			return err
		}
		if id != rec.ID {
			return fmt.Errorf("setcontain: replayed insert assigned id %d, log recorded %d", id, rec.ID)
		}
		return nil
	case wal.OpDelete:
		return idx.Delete(rec.ID)
	}
	return fmt.Errorf("setcontain: unknown log op %v", rec.Op)
}

// Index returns the live index. Its mutations are logged like the
// Durable's own.
func (d *Durable) Index() *Index { return d.idx }

// Store returns the query store over the live index.
func (d *Durable) Store() *Store { return d.store }

// Dir returns the WAL directory.
func (d *Durable) Dir() string { return d.dir }

// InsertSets is Store.InsertSets: the index's one insert path logs each
// set and commits the batch per the fsync policy before it returns. On
// a log failure the log wedges and the whole batch reports the wedge.
func (d *Durable) InsertSets(sets [][]Item) ([]uint32, error) { return d.idx.insertSets(sets) }

// DeleteIDs is Store.DeleteIDs, logged like InsertSets.
func (d *Durable) DeleteIDs(ids []uint32) error { return d.idx.deleteIDs(ids) }

// MergeDelta folds the delta into the disk structures. A merge is a
// physical reorganization — it changes no logical answer — so it is not
// logged: a replay that skips it reconstructs an index with the same
// answers, merely with its deltas still pending.
func (d *Durable) MergeDelta() error { return d.idx.MergeDelta() }

// commit makes a batch's appends durable per the fsync policy and kicks
// the checkpointer, with no index lock held. It commits after a
// mid-batch engine error too: the sets applied before it were logged
// and are reported applied. A nil d (a plain index) passes err through.
func (d *Durable) commit(err error) error {
	if d == nil {
		return err
	}
	if cerr := d.log.Commit(); err == nil {
		err = cerr
	}
	d.maybeCheckpoint()
	return err
}

var errDurableClosed = errors.New("setcontain: durable index closed")

// Checkpoint folds the log into a fresh snapshot now: serialize the
// index, take the log's mark and rotate the log under the Index's read
// lock — appends happen only under its write lock, so the mark is the
// snapshot's — then, with mutations flowing again, write the snapshot
// crash-atomically, drop checkpoints older than the previous one, and
// truncate the covered log segments. A crash anywhere in the sequence leaves either the old
// checkpoint plus the whole log, or the new checkpoint plus a log tail
// that replay skips by watermark; both recover exactly.
func (d *Durable) Checkpoint() error {
	d.ckpt.Lock()
	defer d.ckpt.Unlock()
	start := time.Now()

	d.idx.mu.RLock()
	if d.closed {
		d.idx.mu.RUnlock()
		return errDurableClosed
	}
	var buf bytes.Buffer
	err := d.idx.eng.Save(&buf)
	mark := d.log.LastLSN()
	if err == nil {
		// Rotate so every segment covered by the new checkpoint is closed
		// and whole-file removable by TruncateThrough.
		err = d.log.Rotate()
	}
	d.idx.mu.RUnlock()
	if err != nil {
		return fmt.Errorf("setcontain: checkpoint: %w", err)
	}

	if mark == d.mark.Load() && d.checkpoints.Load() > 0 {
		// Nothing new since the last checkpoint; skip the file churn.
		return nil
	}
	fs := d.o.FS
	if err := wal.WriteFileAtomic(fs, filepath.Join(d.dir, checkpointName(mark)), func(w io.Writer) error {
		_, werr := w.Write(buf.Bytes())
		return werr
	}); err != nil {
		return fmt.Errorf("setcontain: checkpoint: %w", err)
	}
	prev := d.mark.Load()
	d.mark.Store(mark)
	d.checkpoints.Add(1)
	d.checkpointNanos.Add(time.Since(start).Nanoseconds())

	// Retain the previous checkpoint as a fallback generation; drop
	// everything older, then the log segments the new checkpoint covers.
	// Failures past this point do not invalidate the checkpoint — the
	// leftovers are garbage-collected by the next cycle.
	if marks, err := listCheckpoints(fs, d.dir); err == nil {
		for _, m := range marks {
			if m != mark && m != prev {
				fs.Remove(filepath.Join(d.dir, checkpointName(m)))
			}
		}
	}
	if err := d.log.TruncateThrough(mark); err != nil {
		d.o.Logf("setcontain: checkpoint: truncating log: %v", err)
	}
	d.log.NoteCheckpoint()
	d.o.Logf("setcontain: checkpoint at lsn %d (%d bytes, %v)",
		mark, buf.Len(), time.Since(start).Round(time.Millisecond))
	return nil
}

// maybeCheckpoint kicks the background checkpointer when enough log
// bytes have accumulated. The kick never blocks: a checkpoint already
// pending covers these bytes too.
func (d *Durable) maybeCheckpoint() {
	if d.kick == nil || d.log.Stats().BytesSinceCheckpoint < d.o.CheckpointBytes {
		return
	}
	select {
	case d.kick <- struct{}{}:
	default:
	}
}

func (d *Durable) checkpointLoop() {
	defer close(d.done)
	for {
		select {
		case <-d.stop:
			return
		case <-d.kick:
			if err := d.Checkpoint(); err != nil && !errors.Is(err, errDurableClosed) {
				d.o.Logf("setcontain: background checkpoint: %v", err)
			}
		}
	}
}

// DurableStats is a point-in-time observation of the durability layer,
// the raw material of the serving layer's /stats WAL section.
type DurableStats struct {
	// Log is the write-ahead log's own counters.
	Log wal.Stats
	// Replay describes what OpenDurable recovered at startup.
	Replay wal.ReplayStats
	// CheckpointLSN is the newest durable checkpoint's watermark.
	CheckpointLSN uint64
	// Checkpoints counts checkpoints taken since open.
	Checkpoints int64
	// CheckpointNanos sums their durations.
	CheckpointNanos int64
}

// Stats returns the durability layer's counters.
func (d *Durable) Stats() DurableStats {
	return DurableStats{
		Log:             d.log.Stats(),
		Replay:          d.replay,
		CheckpointLSN:   d.mark.Load(),
		Checkpoints:     d.checkpoints.Load(),
		CheckpointNanos: d.checkpointNanos.Load(),
	}
}

// Close stops the background checkpointer and closes the log, flushing
// any unsynced tail so a graceful shutdown loses nothing even under the
// interval and OS policies. The index remains queryable in memory;
// mutations fail once closed.
func (d *Durable) Close() error {
	d.idx.mu.Lock()
	already := d.closed
	d.closed = true
	d.idx.mu.Unlock()
	if already {
		return nil
	}
	if d.stop != nil {
		close(d.stop)
		<-d.done
	}
	return d.log.Close()
}
