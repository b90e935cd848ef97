package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/wal"
	"repro/setcontain"
	"repro/setcontain/serve"
)

const (
	insertBatch = 1 // sets per InsertSets in the window
	deleteBatch = 1 // ids per DeleteIDs in the window
	ringSets    = 1 << 16
	// checkpointBytes is small enough that the background checkpointer
	// completes a cycle or two inside one window at the writer's rate (about
	// 36 KB of log in fifteen seconds), and larger than the log the
	// post-checkpoint tail writes (about 25 KB), so that no checkpoint runs
	// beside the crash image's copy and recovery replays the whole tail.
	checkpointBytes = 32 << 10
	exactSample     = 4 // every exactSample-th reader op is checked exactly after quiesce
	tailBatch       = 8 // sets per InsertSets of the post-checkpoint tail
)

// durableWorkload is durable_rw: one writer client and one reader client
// on the same Durable index (real files, fsync on every acknowledgement),
// then quiesce, exact check, checkpoint, a fixed tail of further inserts,
// a crash image and a timed recovery.
type durableWorkload struct {
	ds    *dataset.Dataset
	dir   string
	d     *setcontain.Durable
	opts  setcontain.DurableOptions
	space int64

	// The write stream, a function of the seed alone: the k-th inserted
	// set is ring[k mod ringSets] and gets id N+k+1; victims is the order
	// in which original ids are deleted.
	ring    *dataset.Dataset
	victims []uint32

	// Writer state. deletedAt[id] is when the delete of id was
	// acknowledged (ns since epoch, 0 = live); the reader reads it while
	// the writer runs, everything else is read after.
	epoch     time.Time
	deletedAt []atomic.Int64
	inserted  int
	deleted   int
	writes    int // the window's writes
	calls     int // InsertSets and DeleteIDs calls, the tail's and the ladder's too
	userBytes int64
}

func (w *durableWorkload) build(r *runner, ds *dataset.Dataset) error {
	w.ds = ds
	w.genWrites(r)
	t0 := time.Now()
	idx, err := setcontain.New(setcontain.WrapDataset(ds), setcontain.WithKind(setcontain.OIF))
	if err != nil {
		return err
	}
	r.buildTime("build.index_s.oif", time.Since(t0))
	w.space = idx.Engine().Space().Bytes
	// The index handed to NewDurable already carries an unmerged delta and
	// tombstones — the head of the write stream, eight inserted sets to one
	// deleted id like the window's writes — so that every read of the window
	// pays for both, and the delta the window adds is small beside it.
	w.deletedAt = make([]atomic.Int64, ds.Len()+1)
	for ; w.inserted < r.cfg.preloadSets; w.inserted++ {
		id, err := idx.Insert(w.ringSet(w.inserted))
		if err != nil || id != uint32(ds.Len()+w.inserted+1) {
			return fmt.Errorf("preload insert %d: id %d, err %v", w.inserted, id, err)
		}
		if w.inserted%8 == 7 {
			victim := w.victims[w.deleted]
			if err := idx.Delete(victim); err != nil {
				return fmt.Errorf("preload delete: %w", err)
			}
			w.deletedAt[victim].Store(1) // before any query begins
			w.deleted++
		}
	}
	if w.dir, err = os.MkdirTemp(r.cfg.tmpDir, "durable-"); err != nil {
		return err
	}
	w.opts = setcontain.DurableOptions{Sync: wal.SyncAlways, CheckpointBytes: checkpointBytes}
	if r.tr != nil {
		w.opts.FS = tracedFS{FS: wal.OSFS{}, t: r.tr}
	}
	w.d, err = setcontain.NewDurable(w.dir, idx, w.opts)
	return err
}

func (w *durableWorkload) close() {
	if w.d != nil {
		w.d.Close()
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		os.RemoveAll(w.dir + ".crash")
	}
}

// genOps returns the reader's pool: the containment 60 % of `mix`.
func (w *durableWorkload) genOps(r *runner) []*op {
	var ops []*op
	for _, o := range genMix(w.ds, r.cfg.seed+2, r.cfg.poolOps) {
		if o.class == classQuery {
			ops = append(ops, o)
		}
	}
	return ops
}

// genWrites generates the write stream. It is part of every set-up, like
// the dataset: the preload needs it before the index is handed over.
func (w *durableWorkload) genWrites(r *runner) {
	sc := r.cfg.syntheticConfig()
	sc.NumRecords, sc.Seed = ringSets, r.cfg.seed+3
	ring, err := dataset.GenerateSynthetic(sc)
	if err != nil {
		panic(err) // the config is the dataset's own, already validated
	}
	victims := make([]uint32, w.ds.Len())
	for i := range victims {
		victims[i] = uint32(i + 1)
	}
	rand.New(rand.NewSource(r.cfg.seed+4)).Shuffle(len(victims), func(a, b int) {
		victims[a], victims[b] = victims[b], victims[a]
	})
	w.ring, w.victims = ring, victims
	if r.rep == 0 {
		h := sha256.New()
		for i := 0; i < ring.Len(); i++ {
			binary.Write(h, binary.LittleEndian, ring.Record(i).Set)
		}
		binary.Write(h, binary.LittleEndian, victims)
		r.doc["write_stream_sha256"] = hex.EncodeToString(h.Sum(nil))
	}
}

// ringSet is the k-th inserted set.
func (w *durableWorkload) ringSet(k int) []dataset.Item { return w.ring.Record(k % ringSets).Set }

// setOf returns the item set of a record id as the shadow copy has it.
func (w *durableWorkload) setOf(id uint32) []dataset.Item {
	if int(id) <= w.ds.Len() {
		return w.ds.Record(int(id) - 1).Set
	}
	return w.ringSet(int(id) - w.ds.Len() - 1)
}

// warm replays the pool once. The preloaded index no longer answers as the
// original dataset does, so the pass gets the live check; the exact checks
// follow the window.
func (w *durableWorkload) warm(r *runner, ops []*op) *clientLog {
	w.epoch = time.Now()
	log := &clientLog{}
	w.read(ops, log, w.epoch, func(time.Time) bool { return log.attempted == len(ops) })
	return log
}

// insert sends the next n sets of the stream and checks the ids it is given.
func (w *durableWorkload) insert(n int) error {
	sets := make([][]setcontain.Item, n)
	for i := range sets {
		sets[i] = w.ringSet(w.inserted + i)
		w.userBytes += int64(4 * len(sets[i]))
	}
	w.calls++
	ids, err := w.d.InsertSets(sets)
	if err != nil {
		return err
	}
	for i, id := range ids {
		if want := uint32(w.ds.Len() + w.inserted + i + 1); id != want {
			return fmt.Errorf("insert %d got id %d, want %d", w.inserted+i, id, want)
		}
	}
	if len(ids) != len(sets) {
		return fmt.Errorf("InsertSets returned %d ids for %d sets", len(ids), len(sets))
	}
	w.inserted += len(sets)
	return nil
}

// write sends the next write of the stream: four InsertSets of insertBatch
// sets, then one DeleteIDs of deleteBatch live ids.
func (w *durableWorkload) write() error {
	defer func() { w.writes++ }()
	if w.writes%5 != 4 {
		return w.insert(insertBatch)
	}
	ids := w.victims[w.deleted : w.deleted+deleteBatch]
	w.calls++
	if err := w.d.DeleteIDs(ids); err != nil {
		return err
	}
	acked := int64(time.Since(w.epoch))
	for _, id := range ids {
		w.deletedAt[id].Store(acked)
	}
	w.deleted += deleteBatch
	w.userBytes += 4 * deleteBatch
	return nil
}

func (w *durableWorkload) clients(r *runner, ops []*op) []clientFunc {
	writer := func(log *clientLog, start, deadline time.Time) {
		for n := 0; ; n++ {
			// Closed loop with think time: a write starts every
			// writePeriod, or as soon as the previous one has been
			// acknowledged when that is later.
			if due := start.Add(time.Duration(n) * r.cfg.writePeriod); time.Until(due) > 0 {
				time.Sleep(min(time.Until(due), time.Until(deadline)))
			}
			t0 := time.Now()
			if !t0.Before(deadline) {
				return
			}
			err := w.write()
			t1 := time.Now()
			log.attempted++
			if err != nil {
				log.fail("write %d: %v", w.writes, err)
				return
			}
			log.samples = append(log.samples, sample{end: int64(t1.Sub(start)), lat: int64(t1.Sub(t0)), op: int32(w.writes), class: classWrite})
		}
	}
	reader := func(log *clientLog, start, deadline time.Time) {
		w.read(ops, log, start, func(now time.Time) bool { return !now.Before(deadline) })
	}
	return []clientFunc{writer, reader}
}

// read is the reader client: the pool replayed round-robin through the
// Durable's Store until done says so, every answer checked.
func (w *durableWorkload) read(ops []*op, log *clientLog, start time.Time, done func(now time.Time) bool) {
	store := w.d.Store()
	var dst []uint32
	for i := 0; ; i++ {
		o := ops[i%len(ops)]
		t0 := time.Now()
		if done(t0) {
			return
		}
		got, err := store.ExecAppend(context.Background(), dst[:0], o.q)
		t1 := time.Now()
		log.attempted++
		if err == nil {
			err = w.checkLive(o, got, int64(t0.Sub(w.epoch)))
		}
		if err != nil {
			log.fail("%s: %v", o.text(), err)
		} else {
			log.samples = append(log.samples, sample{end: int64(t1.Sub(start)), lat: int64(t1.Sub(t0)), op: o.idx, class: classQuery})
		}
		if got != nil {
			dst = got
		}
	}
}

// mergeUnderRead folds the window's delta into the index while the reader
// keeps going, and reports how long the merge took and what the reads that
// overlapped it saw. On the OIF a MergeDelta is a full rebuild. (It is kept
// out of the window: with merges inside it, where they fell relative to
// the segments and the window's end gave throughput_ops_s a quartile
// spread of 0.19-0.57 over ten seeds.)
func (w *durableWorkload) mergeUnderRead(r *runner, ops []*op) error {
	var merged atomic.Bool
	log := &clientLog{}
	readerDone := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(readerDone)
		w.read(ops, log, start, func(time.Time) bool { return merged.Load() })
	}()
	time.Sleep(20 * time.Millisecond) // let the reader get going
	t0 := time.Now()
	err := w.d.MergeDelta()
	mergeTime := time.Since(t0)
	merged.Store(true)
	<-readerDone
	r.count(log)
	if err != nil {
		return fmt.Errorf("MergeDelta: %w", err)
	}
	var during []int64
	for _, s := range log.samples {
		if s.end > int64(t0.Sub(start)) {
			during = append(during, s.lat)
		}
	}
	sort.Slice(during, func(a, b int) bool { return during[a] < during[b] })
	r.m.set("store.query_p99_during_merge_us", float64(percentile(during, 99))/1e3)
	r.m.set("durable.merge_ms_mean", float64(mergeTime)/1e6)
	return nil
}

// checkLive is the check an answer gets while the writer runs, when the
// exact answer is a moving target: ids strictly ascending, none deleted
// and acknowledged before the query began, and the predicate true of the
// shadow copy's set for every id (for a strided 256 of them when the
// answer is longer).
func (w *durableWorkload) checkLive(o *op, got []uint32, began int64) error {
	for i, id := range got {
		if i > 0 && got[i-1] >= id {
			return fmt.Errorf("ids not ascending at %d", i)
		}
		if int(id) < len(w.deletedAt) {
			if at := w.deletedAt[id].Load(); at != 0 && at < began {
				return fmt.Errorf("id %d was deleted and acknowledged before the query began", id)
			}
		}
	}
	stride := max(1, len(got)/256)
	for i := 0; i < len(got); i += stride {
		rec := dataset.Record{Set: w.setOf(got[i])}
		var ok bool
		switch o.q.Pred {
		case setcontain.PredicateSubset:
			ok = rec.ContainsAll(o.q.Items)
		case setcontain.PredicateEquality:
			ok = rec.EqualSet(o.q.Items)
		default:
			ok = rec.SubsetOf(o.q.Items)
		}
		if !ok {
			return fmt.Errorf("id %d does not satisfy the predicate", got[i])
		}
	}
	return nil
}

// expectAfter is the exact answer of o once the first `inserted` sets of
// the write stream are in and the first `deleted` victims are out: the
// original answer minus the deleted ids, plus internal/naive's answer
// over the inserted sets alone, shifted into their id range.
func (w *durableWorkload) expectAfter(o *op, added *dataset.Dataset, gone map[uint32]bool) []uint32 {
	var want []uint32
	for _, id := range o.want {
		if !gone[id] {
			want = append(want, id)
		}
	}
	for _, id := range naiveEval(added, o.q) {
		want = append(want, id+uint32(w.ds.Len()))
	}
	return want
}

// addedDataset holds the first n sets of the write stream, ids 1..n.
func (w *durableWorkload) addedDataset(n int) *dataset.Dataset {
	d := dataset.New(w.ds.DomainSize())
	for k := 0; k < n; k++ {
		if _, err := d.Add(w.ringSet(k)); err != nil {
			panic(err) // ring sets come from a dataset over the same domain
		}
	}
	return d
}

// exactCheck runs every exactSample-th reader op on store and compares it
// with the exact post-mutation answer.
func (w *durableWorkload) exactCheck(r *runner, what string, store *setcontain.Store, ops []*op, inserted int) {
	gone := make(map[uint32]bool, w.deleted)
	for _, id := range w.victims[:w.deleted] {
		gone[id] = true
	}
	added := w.addedDataset(inserted)
	for i := 0; i < len(ops); i += exactSample {
		got, err := store.ExecAppend(context.Background(), nil, ops[i].q)
		r.check(err == nil && slices.Equal(got, w.expectAfter(ops[i], added, gone)),
			"%s: %s differs from the oracle (err %v)", what, ops[i].text(), err)
	}
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			in.Close()
			return err
		}
		_, err = io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *durableWorkload) finish(r *runner, ops []*op, win *clientLog) error {
	st := w.d.Stats()
	r.doc["durable"] = map[string]any{"writes": w.writes, "inserted_sets": w.inserted, "deleted_ids": w.deleted,
		"checkpoints": st.Checkpoints, "wal_bytes": st.Log.AppendedBytes}

	// The write side of the window. The log was opened empty by
	// NewDurable, so its counters since Open are the window's (the preload
	// went into the index before that, and the warm-up pass writes nothing).
	writes := float64(w.writes)
	var writeSum int64
	for _, s := range win.samples {
		if s.class == classWrite {
			writeSum += s.lat
		}
	}
	r.m.set("wal_bytes_per_user_byte", ratio(float64(st.Log.AppendedBytes), float64(w.userBytes)))
	r.m.set("wal.appends_per_write", ratio(float64(st.Log.Appends), writes))
	r.m.set("wal.bytes_per_append", ratio(float64(st.Log.AppendedBytes), float64(st.Log.Appends)))
	r.m.set("wal.syncs_per_write", ratio(float64(st.Log.Syncs), writes))
	r.m.set("wal.sync_us_mean", ratio(float64(st.Log.TotalSyncNanos)/1e3, float64(st.Log.Syncs)))
	r.m.set("wal.sync_share", ratio(float64(st.Log.TotalSyncNanos), float64(writeSum)))

	if err := w.mergeUnderRead(r, ops); err != nil {
		return err
	}
	// Quiesced: every answer is now exact.
	w.exactCheck(r, "after quiesce", w.d.Store(), ops, w.inserted)
	if err := w.d.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	// The window's background checkpoints and this one (a traced run's half
	// window may write too little to trigger any).
	ck := w.d.Stats()
	r.m.set("durable.checkpoints", float64(ck.Checkpoints))
	r.m.set("durable.checkpoint_ms_mean", ratio(float64(ck.CheckpointNanos)/1e6, float64(ck.Checkpoints)))
	// A fixed tail of acknowledged inserts that only the log holds.
	for n := 0; n < r.cfg.tailSets; n += tailBatch {
		if err := w.insert(tailBatch); err != nil {
			return fmt.Errorf("tail insert: %w", err)
		}
	}
	// The crash image: the directory as it is, the Durable not closed.
	// Every acknowledged write was fsynced first (SyncAlways), so the
	// image holds no acknowledged byte that a power cut could have lost.
	crash := w.dir + ".crash"
	if err := copyDir(w.dir, crash); err != nil {
		return fmt.Errorf("crash image: %w", err)
	}
	t0 := time.Now()
	recOpts := w.opts
	recOpts.FS = nil
	rec, err := setcontain.OpenDurable(crash, recOpts)
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	defer rec.Close()
	// The first verified answer: the last acknowledged set is found.
	last := w.ringSet(w.inserted - 1)
	got, err := rec.Store().ExecAppend(context.Background(), nil, setcontain.EqualityQuery(last))
	lastID := uint32(w.ds.Len() + w.inserted)
	r.check(err == nil && len(got) > 0 && got[len(got)-1] == lastID,
		"recovery: last acknowledged insert (id %d) not found (err %v)", lastID, err)
	r.m.set("recovery_s", time.Since(t0).Seconds())
	r.check(rec.Index().NumRecords() == w.ds.Len()+w.inserted && rec.Index().Deleted() == w.deleted,
		"recovery: %d records and %d tombstones, want %d and %d", rec.Index().NumRecords(), rec.Index().Deleted(),
		w.ds.Len()+w.inserted, w.deleted)
	w.exactCheck(r, "after recovery", rec.Store(), ops, w.inserted)
	rs := rec.Stats().Replay
	r.check(rs.Records >= r.cfg.tailSets && !rs.Truncated, "recovery replayed %d records (truncated=%v), want at least %d",
		rs.Records, rs.Truncated, r.cfg.tailSets)
	r.m.set("wal.replay_records_per_s", ratio(float64(rs.Records), rs.Duration.Seconds()))
	return nil
}

// ladder, for the durable layer: the same InsertSets on the Durable and
// on a plain Store over a twin index gives durable.self_us; the decorated
// wal.FS has timed every file write; and Save / Open of the live index
// give the snapshot throughputs.
func (w *durableWorkload) ladder(r *runner, _ []*op, budget time.Duration) error {
	twinIdx, err := setcontain.New(setcontain.WrapDataset(w.ds), setcontain.WithKind(setcontain.OIF),
		setcontain.WithCachePages(warmCachePages))
	if err != nil {
		return err
	}
	twin := setcontain.NewStore(twinIdx, warmCachePages)
	var self []int64
	for start := time.Now(); len(self) < 500 && time.Since(start) < budget/2; {
		r.tr.req.Add(1)
		sets := make([][]setcontain.Item, insertBatch)
		for i := range sets {
			sets[i] = w.ringSet(w.inserted + i)
		}
		t0 := time.Now()
		if _, err := twin.InsertSets(sets); err != nil {
			return err
		}
		t1 := time.Now()
		id, _ := r.tr.open()
		r.tr.scope.Store(id)
		if err := w.insert(insertBatch); err != nil {
			return err
		}
		t2 := time.Now()
		r.tr.scope.Store(0)
		r.tr.add("rung.store_insert", 0, 0, t0, t1)
		r.tr.addID(id, "rung.durable_insert", 0, 0, t1, t2)
		self = append(self, int64(t2.Sub(t1)-t1.Sub(t0)))
	}
	r.m.set("durable.self_us", medianInt(self)/1e3)

	var fsWrites []int64
	fsSpans := 0
	r.tr.mu.Lock()
	for _, s := range r.tr.spans {
		switch s.Name {
		case "wal.fs.write":
			fsWrites = append(fsWrites, s.End-s.Start)
			fsSpans++
		case "wal.fs.sync":
			fsSpans++
		}
	}
	r.tr.mu.Unlock()
	spansPerWrite := ratio(float64(fsSpans), float64(w.calls))
	r.m.set("wal.fs_write_us", medianInt(fsWrites)/1e3)

	// Tracing overhead on this workload is the decorated FS's spans: what
	// recording them costs, as a share of the median write.
	scratch := newTracer()
	const probes = 100_000
	t0 := time.Now()
	for i := 0; i < probes; i++ {
		id, start := scratch.open()
		scratch.close(id, 0, "probe", start, 0)
	}
	perSpan := float64(time.Since(t0)) / probes
	r.m.set("trace.overhead_pct", 100*ratio(perSpan*spansPerWrite, r.m.vals["write_p50_us"]*1e3))

	var snap bytes.Buffer
	t0 = time.Now()
	if err := w.d.Index().Save(&snap); err != nil {
		return err
	}
	mb := float64(snap.Len()) / (1 << 20)
	r.m.set("snapio.save_mb_s", ratio(mb, time.Since(t0).Seconds()))
	t0 = time.Now()
	if _, err := setcontain.Open(&snap); err != nil {
		return err
	}
	r.m.set("snapio.restore_mb_s", ratio(mb, time.Since(t0).Seconds()))
	return nil
}

func (w *durableWorkload) stores() []*setcontain.Store  { return []*setcontain.Store{w.d.Store()} }
func (w *durableWorkload) batcher() *serve.Batcher      { return nil }
func (w *durableWorkload) oifEngine() setcontain.Engine { return nil }
func (w *durableWorkload) spaceBytes() int64            { return w.space }
