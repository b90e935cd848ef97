package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/invfile"
	"repro/internal/storage"
	"repro/internal/ubtree"
	"repro/setcontain"
	"repro/setcontain/serve"
)

// paperEngine builds one of the three §5 systems the way
// experiments.BuildPair / BuildUnordered do — the backend built directly,
// decoded cache off, wrapped with EngineOf — and meters it under the
// paper's 8-page (32 KB) cache.
func paperEngine(ds *dataset.Dataset, kind setcontain.Kind) (setcontain.Engine, error) {
	cfg := experiments.DefaultConfig(nil)
	var backend any
	var err error
	switch kind {
	case setcontain.OIF:
		backend, err = core.Build(ds, core.Options{PageSize: cfg.PageSize, BlockPostings: cfg.BlockPostings})
	case setcontain.InvertedFile:
		backend, err = invfile.Build(ds, invfile.BuildOptions{PageSize: cfg.PageSize})
	default:
		backend, err = ubtree.Build(ds, ubtree.Options{PageSize: cfg.PageSize, BlockPostings: cfg.BlockPostings})
	}
	if err != nil {
		return nil, fmt.Errorf("build %v: %w", kind, err)
	}
	eng, err := setcontain.EngineOf(backend)
	if err != nil {
		return nil, err
	}
	if _, err := experiments.Meter(eng, cfg.PoolPages); err != nil {
		return nil, err
	}
	return eng, nil
}

// coldPass is one pass of the §5 protocol over ops with
// experiments.MeasureWorkload's semantics: the metered pool is dropped at
// the start of the pass and persists across its queries; page accesses
// are the pool's misses, classified sequential / near / random.
type coldPass struct {
	queries int
	stats   storage.AccessStats
	io      time.Duration // storage.DefaultDiskModel over every query's misses
	cpu     []int64       // per-query compute time, ns
}

func (p coldPass) pagesPerQuery() float64 { return ratio(float64(p.stats.Misses), float64(p.queries)) }
func (p coldPass) ioMsPerQuery() float64 {
	return ratio(float64(p.io)/float64(time.Millisecond), float64(p.queries))
}

// runColdPass runs one pass. each, when non-nil, sees every query's
// answer and timing; a pass stops early when it returns false.
func runColdPass(eng setcontain.Engine, ops []*op, each func(o *op, got []uint32, err error, t0, t1 time.Time) bool) (coldPass, error) {
	var p coldPass
	pool := eng.Pool()
	if err := pool.DropAll(); err != nil {
		return p, err
	}
	disk := storage.DefaultDiskModel()
	for _, o := range ops {
		pool.ResetStats()
		t0 := time.Now()
		got, err := o.q.Eval(eng)
		t1 := time.Now()
		st := pool.Stats()
		p.queries++
		p.stats = p.stats.Add(st)
		p.io += disk.Time(st)
		p.cpu = append(p.cpu, int64(t1.Sub(t0)))
		if each != nil && !each(o, got, err, t0, t1) {
			break
		}
		if each == nil && err != nil {
			return p, fmt.Errorf("%s: %w", o.text(), err)
		}
	}
	return p, nil
}

// paperProbe measures the paper's own metric — OIF page accesses per
// query under a cold 32 KB cache — with one complete pass of the §5 pool.
// Every workload reports it (the driver wants every end-to-end metric
// from every workload); eng is the workload's metered OIF engine, or nil
// to build one over ds.
func paperProbe(r *runner, ds *dataset.Dataset, eng setcontain.Engine) (coldPass, error) {
	if eng == nil {
		var err error
		if eng, err = paperEngine(ds, setcontain.OIF); err != nil {
			return coldPass{}, err
		}
	}
	ops := genPaper(ds, r.cfg.seed+1, r.cfg.paperPerSize)
	p, err := runColdPass(eng, ops, func(o *op, got []uint32, err error, _, _ time.Time) bool {
		// §5 draws every query from an existing record, so a correct
		// index never answers one with nothing.
		r.check(err == nil && len(got) > 0, "probe %s: %d ids, err %v", o.text(), len(got), err)
		return true
	})
	r.doc["paper_probe"] = map[string]any{
		"queries": p.queries, "pages": p.stats.Misses, "seq": p.stats.SeqMisses,
		"near": p.stats.NearMisses, "rand": p.stats.RandMisses,
	}
	return p, err
}

// paperWorkload is paper_cold_io: the three §5 systems called directly on
// one goroutine, each pass starting from a dropped 8-page pool. OIF is
// the system timed in the window; IF and the unordered B-tree supply the
// comparator rows.
type paperWorkload struct {
	ds            *dataset.Dataset
	oif, ifx, ubt setcontain.Engine
}

func (w *paperWorkload) build(r *runner, ds *dataset.Dataset) error {
	w.ds = ds
	for _, b := range []struct {
		kind   setcontain.Kind
		metric string
		into   *setcontain.Engine
	}{
		{setcontain.OIF, "build.index_s.oif", &w.oif},
		{setcontain.InvertedFile, "build.index_s.if", &w.ifx},
		{setcontain.UnorderedBTree, "build.index_s.ubt", &w.ubt},
	} {
		t0 := time.Now()
		eng, err := paperEngine(ds, b.kind)
		if err != nil {
			return err
		}
		r.buildTime(b.metric, time.Since(t0))
		*b.into = eng
	}
	return nil
}

func (w *paperWorkload) genOps(r *runner) []*op {
	return genPaper(w.ds, r.cfg.seed+1, r.cfg.paperPerSize)
}

// pass runs one checked pass over eng, logging into log until deadline.
func (w *paperWorkload) pass(eng setcontain.Engine, ops []*op, log *clientLog, start, deadline time.Time) (coldPass, error) {
	return runColdPass(eng, ops, func(o *op, got []uint32, err error, t0, t1 time.Time) bool {
		log.done(o, classQuery, got, err, start, t0, t1)
		return deadline.IsZero() || t1.Before(deadline)
	})
}

func (w *paperWorkload) warm(r *runner, ops []*op) *clientLog {
	log := &clientLog{}
	if _, err := w.pass(w.oif, ops, log, time.Now(), time.Time{}); err != nil {
		log.fail("warm-up pass: %v", err)
	}
	return log
}

func (w *paperWorkload) clients(r *runner, ops []*op) []clientFunc {
	return []clientFunc{func(log *clientLog, start, deadline time.Time) {
		for time.Now().Before(deadline) {
			if _, err := w.pass(w.oif, ops, log, start, deadline); err != nil {
				log.fail("pass: %v", err)
				return
			}
		}
	}}
}

func (w *paperWorkload) finish(r *runner, ops []*op, _ *clientLog) error {
	if !r.cfg.trace {
		return nil // the comparator passes feed per-layer metrics only
	}
	// One complete checked pass per system, for the storage and
	// comparator rows.
	passes := map[string]coldPass{}
	for name, eng := range map[string]setcontain.Engine{"oif": w.oif, "if": w.ifx, "ubt": w.ubt} {
		log := &clientLog{}
		p, err := w.pass(eng, ops, log, time.Now(), time.Time{})
		if err != nil {
			return err
		}
		r.count(log)
		passes[name] = p
	}
	oif, ifp := passes["oif"], passes["if"]
	misses := float64(oif.stats.Misses)
	r.m.set("storage.page_reads_per_query", oif.pagesPerQuery())
	r.m.set("storage.seq_share", ratio(float64(oif.stats.SeqMisses), misses))
	r.m.set("storage.rand_share", ratio(float64(oif.stats.RandMisses), misses))
	r.m.set("storage.hit_rate", ratio(float64(oif.stats.Hits), float64(oif.stats.Accesses())))
	r.m.set("core.query_self_us", medianInt(oif.cpu)/1e3)
	r.m.set("core.oif_if_pages_ratio", ratio(oif.pagesPerQuery(), ifp.pagesPerQuery()))
	r.m.set("invfile.pages_per_query", ifp.pagesPerQuery())
	r.m.set("invfile.query_self_us", medianInt(ifp.cpu)/1e3)
	r.m.set("ubtree.pages_per_query", passes["ubt"].pagesPerQuery())
	return nil
}

// ladder: the workload has one rung, already a direct call into core, so
// the traced pass is a pass with a span per query, against an unspanned
// pass of the same queries for the overhead.
func (w *paperWorkload) ladder(r *runner, ops []*op, _ time.Duration) error {
	// Plain and spanned passes alternate, so neither side always runs on
	// the colder CPU.
	var plain, traced time.Duration
	for pass := 0; pass < 4; pass++ {
		spanned := pass%2 == 1
		t0 := time.Now()
		_, err := runColdPass(w.oif, ops, func(o *op, got []uint32, err error, q0, q1 time.Time) bool {
			r.check(err == nil && slices.Equal(got, o.want), "traced %s: wrong answer (err %v)", o.text(), err)
			if spanned {
				r.tr.req.Add(1)
				r.tr.add("rung.core", 0, 0, q0, q1)
			}
			return true
		})
		if err != nil {
			return err
		}
		if spanned {
			traced += time.Since(t0)
		} else {
			plain += time.Since(t0)
		}
	}
	r.m.set("trace.overhead_pct", 100*ratio(float64(traced-plain), float64(plain)))
	return nil
}

func (w *paperWorkload) stores() []*setcontain.Store  { return nil }
func (w *paperWorkload) batcher() *serve.Batcher      { return nil }
func (w *paperWorkload) oifEngine() setcontain.Engine { return w.oif }
func (w *paperWorkload) spaceBytes() int64            { return w.oif.Space().Bytes }
func (w *paperWorkload) close()                       {}
