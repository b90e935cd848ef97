package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/setcontain"
	"repro/setcontain/serve"
)

// serveWorkload is store_warm, http_single and http_scatter: the op pool
// `mix` sent by closed-loop clients to, respectively, the Store, one
// serve.Server over loopback, and a coordinator serve.Server over two
// shard serve.Servers. The three share the data, the pool and the warm
// cache budget, so the difference between them is the layers added.
type serveWorkload struct {
	kind string
	ds   *dataset.Dataset

	idx    *setcontain.Index // what the top store serves (the coordinator's index on http_scatter)
	store  *setcontain.Store
	server *serve.Server // nil on store_warm
	url    string
	hc     *http.Client
	shards []*setcontain.Store // http_scatter: the shard daemons' stores
	space  int64
	closer []func()
}

func (w *serveWorkload) build(r *runner, ds *dataset.Dataset) error {
	w.ds = ds
	serveOn := func(name string, scope bool, idx *setcontain.Index, store *setcontain.Store) (*serve.Server, string) {
		sv := serve.NewServer(idx, store, serve.Config{})
		h := sv.Handler()
		if r.tr != nil {
			h = r.tr.middleware(name, scope, h)
		}
		ts := httptest.NewServer(h) // a 127.0.0.1 TCP listener on a free port
		w.closer = append(w.closer, ts.Close, sv.Close)
		return sv, ts.URL
	}
	col := setcontain.WrapDataset(ds)

	if w.kind != "http_scatter" {
		t0 := time.Now()
		idx, err := setcontain.New(col, setcontain.WithKind(setcontain.OIF), setcontain.WithCachePages(warmCachePages))
		if err != nil {
			return err
		}
		r.buildTime("build.index_s.oif", time.Since(t0))
		w.idx, w.store = idx, setcontain.NewStore(idx, warmCachePages)
		w.space = idx.Engine().Space().Bytes
		if w.kind == "http_single" {
			w.server, w.url = serveOn("handler", false, idx, w.store)
		}
	} else {
		// Two shards, built as one Sharded index, saved, and split into
		// per-shard snapshots that the shard daemons boot from.
		t0 := time.Now()
		sidx, err := setcontain.New(col, setcontain.WithKind(setcontain.Sharded), setcontain.WithShards(2),
			setcontain.WithCachePages(warmCachePages))
		if err != nil {
			return err
		}
		r.buildTime("build.index_s.oif", time.Since(t0))
		w.space = sidx.Engine().Space().Bytes
		var snap bytes.Buffer
		if err := sidx.Save(&snap); err != nil {
			return err
		}
		var urls []string
		t0 = time.Now()
		err = setcontain.SplitSnapshot(&snap, func(shard int, _ setcontain.ShardPlan, frame io.Reader) error {
			ix, err := setcontain.Open(frame, setcontain.WithCachePages(warmCachePages))
			if err != nil {
				return err
			}
			st := setcontain.NewStore(ix, warmCachePages)
			_, url := serveOn(fmt.Sprintf("shard%d.handler", shard), false, ix, st)
			w.shards = append(w.shards, st)
			urls = append(urls, url)
			return nil
		})
		if err != nil {
			return err
		}
		r.buildTime("build.split_snapshot_s", time.Since(t0))
		ctx := context.Background()
		if r.tr == nil {
			w.idx, err = setcontain.ConnectShards(ctx, urls)
		} else {
			clients := make([]setcontain.ShardClient, len(urls))
			for i, u := range urls {
				clients[i] = newTracedShard(r.tr, fmt.Sprintf("shard%d.call", i), u)
			}
			w.idx, err = setcontain.ShardedOverClients(ctx, clients)
		}
		if err != nil {
			return err
		}
		w.store = setcontain.NewStore(w.idx, 0)
		w.server, w.url = serveOn("handler", true, w.idx, w.store)
	}
	if w.server != nil {
		// One keep-alive connection per closed-loop client.
		tr := &http.Transport{MaxIdleConnsPerHost: r.cfg.clients, MaxConnsPerHost: r.cfg.clients}
		w.hc = &http.Client{Transport: tr}
		w.closer = append(w.closer, tr.CloseIdleConnections)
	}
	return nil
}

func (w *serveWorkload) close() {
	for _, f := range w.closer {
		f()
	}
	// The coordinator's shard clients share the default transport.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

func (w *serveWorkload) genOps(r *runner) []*op { return genMix(w.ds, r.cfg.seed+2, r.cfg.poolOps) }

func (w *serveWorkload) newExec() executor {
	if w.server == nil {
		return storeExec{w.store}
	}
	return &httpExec{hc: w.hc, url: w.url}
}

func (w *serveWorkload) execs(n int) []executor {
	out := make([]executor, n)
	for i := range out {
		out[i] = w.newExec()
	}
	return out
}

func (w *serveWorkload) warm(r *runner, ops []*op) *clientLog {
	return replayOnce(w.execs(r.cfg.clients), ops)
}

func (w *serveWorkload) clients(r *runner, ops []*op) []clientFunc {
	out := make([]clientFunc, r.cfg.clients)
	for i, ex := range w.execs(r.cfg.clients) {
		// Each client starts at its own offset in the pool.
		out[i] = replayClient(ex, ops, i*len(ops)/r.cfg.clients)
	}
	return out
}

func (w *serveWorkload) finish(*runner, []*op, *clientLog) error { return nil }

func (w *serveWorkload) stores() []*setcontain.Store {
	return append([]*setcontain.Store{w.store}, w.shards...)
}

func (w *serveWorkload) batcher() *serve.Batcher {
	if w.server == nil {
		return nil
	}
	return w.server.Batcher()
}

func (w *serveWorkload) oifEngine() setcontain.Engine { return nil }
func (w *serveWorkload) spaceBytes() int64            { return w.space }

// --- the rung ladder --------------------------------------------------------

// rung is one level of the ladder: a public entry point an op can be
// issued to. run reports ok=false when the rung does not apply to the op
// (the core and engine rungs take single predicates only).
type rung struct {
	name string
	run  func(o *op, dst []uint32) (got []uint32, ok bool, err error)
}

// coreAppend issues a containment query to a core.Reader.
func coreAppend(rd *core.Reader, dst []uint32, q setcontain.Query) ([]uint32, error) {
	switch q.Pred {
	case setcontain.PredicateSubset:
		return rd.AppendSubset(dst, q.Items)
	case setcontain.PredicateEquality:
		return rd.AppendEquality(dst, q.Items)
	default:
		return rd.AppendSuperset(dst, q.Items)
	}
}

// ladder issues each op of the traced prefix to every rung in turn —
// core.Reader.Append*, Index.Append*, (for expressions) ParseExpr /
// PlanExpr / Evaluator, Store.Exec*Append, Batcher.Do*, HTTP /query — and
// derives each layer's self time as its rung's duration minus the rung
// below's, per op, reported as the median over ops. It stops at
// cfg.traceOps ops or when the budget is spent.
func (w *serveWorkload) ladder(r *runner, ops []*op, budget time.Duration) error {
	var rungs []rung
	var planner func(o *op, dst []uint32) ([]uint32, [3]time.Time, time.Time, error)
	if w.kind != "http_scatter" {
		cix, ok := w.idx.Engine().Unwrap().(*core.Index)
		if !ok {
			return fmt.Errorf("engine is %T, not the OIF", w.idx.Engine().Unwrap())
		}
		crd, err := cix.NewReader(warmCachePages)
		if err != nil {
			return err
		}
		evalReader, err := w.idx.NewReader(warmCachePages)
		if err != nil {
			return err
		}
		sup := w.store.Supports()
		var evaluator setcontain.Evaluator
		// planner is what Store.ExecExpr*Append does under its pooling,
		// step by step, plus the parse a wire request pays.
		planner = func(o *op, dst []uint32) (got []uint32, t [3]time.Time, end time.Time, err error) {
			t[0] = time.Now()
			parsed, err := setcontain.ParseExpr(o.expr.String())
			t[1] = time.Now()
			if err != nil {
				return nil, t, t[1], err
			}
			plan, err := setcontain.PlanExpr(parsed, sup)
			t[2] = time.Now()
			if err != nil {
				return nil, t, t[2], err
			}
			got, _, err = evaluator.EvalLimitAppend(dst, plan, evalReader, o.limit)
			return got, t, time.Now(), err
		}
		rungs = append(rungs,
			rung{"core", func(o *op, dst []uint32) ([]uint32, bool, error) {
				if o.class != classQuery {
					return nil, false, nil
				}
				got, err := coreAppend(crd, dst, o.q)
				return got, true, err
			}},
			rung{"engine", func(o *op, dst []uint32) ([]uint32, bool, error) {
				if o.class != classQuery {
					return nil, false, nil
				}
				got, err := o.q.EvalAppend(dst, w.idx.Engine())
				return got, true, err
			}})
	}
	rungs = append(rungs, rung{"store", func(o *op, dst []uint32) ([]uint32, bool, error) {
		got, err := storeExec{w.store}.exec(o, dst)
		return got, true, err
	}})
	var hx *httpExec
	if w.server != nil {
		b := w.server.Batcher()
		hx = &httpExec{hc: w.hc, url: w.url}
		rungs = append(rungs,
			rung{"batcher", func(o *op, dst []uint32) ([]uint32, bool, error) {
				got, err := b.DoExprLimit(context.Background(), dst, o.expr, o.limit)
				return got, true, err
			}},
			rung{"http", func(o *op, dst []uint32) ([]uint32, bool, error) {
				got, err := hx.exec(o, dst)
				return got, true, err
			}})
	}
	top := len(rungs) - 1
	var dst []uint32
	keep := func(got []uint32) {
		if got != nil {
			dst = got
		}
	}

	// Warm the handles only the ladder uses (the store's, the batcher's
	// and the server's are warm from the window).
	for _, o := range ops {
		for _, rg := range rungs[:top] {
			if rg.name == "core" || rg.name == "engine" {
				got, _, _ := rg.run(o, dst[:0])
				keep(got)
			}
		}
		if planner != nil && o.class != classQuery {
			got, _, _, _ := planner(o, dst[:0])
			keep(got)
		}
	}

	// The untraced single-client pass of the same ops through the top
	// rung, for trace.overhead_pct.
	var plain []time.Duration
	for start := time.Now(); len(plain) < r.cfg.traceOps && time.Since(start) < budget/3; {
		t0 := time.Now()
		got, _, err := rungs[top].run(ops[len(plain)%len(ops)], dst[:0])
		if err != nil {
			return err
		}
		plain = append(plain, time.Since(t0))
		keep(got)
	}

	// The traced pass.
	series := map[string][]int64{} // per-op values by metric name: ns, or bytes
	add := func(name string, d time.Duration) { series[name] = append(series[name], int64(d)) }
	dur := make([]time.Duration, len(rungs))
	traced := 0
	for start := time.Now(); traced < r.cfg.traceOps && time.Since(start) < budget*2/3; traced++ {
		o := ops[traced%len(ops)]
		req := int64(traced + 1)
		r.tr.req.Store(req)
		var lower time.Duration // what the store rung sits on for this op
		if planner != nil && o.class != classQuery {
			got, t, end, err := planner(o, dst[:0])
			r.check(err == nil && slices.Equal(got, o.want), "traced planner %s: wrong answer (err %v)", o.text(), err)
			keep(got)
			r.tr.add("planner.parse", 0, 0, t[0], t[1])
			r.tr.add("planner.plan", 0, 0, t[1], t[2])
			r.tr.add("planner.eval", 0, 0, t[2], end)
			add("planner.parse_us", t[1].Sub(t[0]))
			add("planner.plan_us", t[2].Sub(t[1]))
			add("planner.eval_us", end.Sub(t[2]))
			lower = end.Sub(t[1])
		}
		for k, rg := range rungs {
			// The rung's span id is reserved first: the HTTP request
			// carries it, and shard calls made below the rung nest under it.
			spanID := r.tr.nextID.Add(1)
			r.tr.scope.Store(spanID)
			if k == top && hx != nil {
				hx.span = spanID
			}
			t0 := time.Now()
			got, ok, err := rg.run(o, dst[:0])
			t1 := time.Now()
			if !ok {
				continue
			}
			r.check(err == nil && slices.Equal(got, o.want), "traced rung %s, %s: wrong answer (err %v)", rg.name, o.text(), err)
			keep(got)
			dur[k] = t1.Sub(t0)
			r.tr.addID(spanID, "rung."+rg.name, 0, 0, t0, t1)
			if k == top {
				add("top_us", dur[k])
			}
			switch rg.name {
			case "core":
				add("core.query_self_us", dur[k])
			case "engine":
				add("engine.self_us", dur[k]-dur[k-1])
				lower = dur[k]
			case "store":
				if planner != nil {
					add("store.self_us", dur[k]-lower)
				} else {
					w.scatterSeries(r, req, spanID, series)
				}
			case "batcher":
				add("batcher.self_us", dur[k]-dur[k-1])
			case "http":
				add("wire.request_encode_us", hx.enc)
				add("wire.response_decode_us", hx.dec)
				series["http.response_bytes_per_op"] = append(series["http.response_bytes_per_op"], int64(hx.respBytes))
				var hs []span
				for _, s := range r.tr.ofReq(req) {
					if s.Name == "handler" {
						hs = append(hs, s)
					}
				}
				if len(hs) != 1 {
					return fmt.Errorf("op %d: %d handler spans, want 1", traced, len(hs))
				}
				handler := time.Duration(hs[0].End - hs[0].Start)
				add("http.handler_self_us", handler-dur[k-1])
				add("http.transport_us", dur[k]-hx.enc-hx.dec-handler)
			}
		}
	}
	timed := []string{"core.query_self_us", "engine.self_us", "store.self_us", "planner.parse_us", "planner.plan_us",
		"planner.eval_us", "batcher.self_us", "wire.request_encode_us", "wire.response_decode_us",
		"http.handler_self_us", "http.transport_us", "scatter.self_us", "remote.shard_rtt_us", "remote.shard_skew_us"}
	for _, name := range timed {
		r.m.set(name, medianInt(series[name])/1e3)
	}
	r.m.set("http.response_bytes_per_op", mean(series["http.response_bytes_per_op"]))
	r.m.set("remote.bytes_per_op", mean(series["remote.bytes_per_op"]))

	// Overhead: the traced top-rung calls against the untraced ones, over
	// the ops both passes reached.
	common := min(len(plain), traced, len(series["top_us"]))
	var plainSum, tracedSum float64
	for i := 0; i < common; i++ {
		plainSum += float64(plain[i])
		tracedSum += float64(series["top_us"][i])
	}
	r.m.set("trace.overhead_pct", 100*ratio(tracedSum-plainSum, plainSum))
	// How much of the top rung's median the layers' median self times
	// account for (means telescope exactly; medians need not). On
	// http_scatter the bottom of the ladder is the slowest shard call.
	var selfSum float64
	for _, name := range []string{"core.query_self_us", "engine.self_us", "store.self_us", "batcher.self_us",
		"wire.request_encode_us", "wire.response_decode_us", "http.handler_self_us", "http.transport_us",
		"scatter.self_us", "slowest_shard_us"} {
		selfSum += medianInt(series[name]) / 1e3
	}
	r.doc["ladder"] = map[string]any{
		"traced_ops": traced, "untraced_ops": len(plain),
		"top_rung_median_us":     medianInt(series["top_us"]) / 1e3,
		"self_times_sum_us":      selfSum,
		"self_sum_over_top_rung": ratio(selfSum, medianInt(series["top_us"])/1e3),
	}
	if w.kind == "store_warm" {
		return w.shardedLadder(r, ops, budget/3)
	}
	return nil
}

// shardedLadder times the same ops through a Store over the single OIF
// index, a Store over a two-shard Sharded index called directly, and a
// Store over ShardedOverClients(InprocShard x 2) aliasing the same shard
// engines: what sharding adds to the single engine, and what the client
// indirection adds to direct sharding — the evidence ROADMAP item 2 wants
// before the direct rung is deleted.
func (w *serveWorkload) shardedLadder(r *runner, ops []*op, budget time.Duration) error {
	sidx, err := setcontain.New(setcontain.WrapDataset(w.ds), setcontain.WithKind(setcontain.Sharded),
		setcontain.WithShards(2), setcontain.WithCachePages(warmCachePages))
	if err != nil {
		return err
	}
	var clients []setcontain.ShardClient
	for _, eng := range setcontain.ShardEngines(sidx.Engine()) {
		clients = append(clients, setcontain.InprocShard(eng))
	}
	cidx, err := setcontain.ShardedOverClients(context.Background(), clients)
	if err != nil {
		return err
	}
	stores := []storeExec{{w.store}, {setcontain.NewStore(sidx, warmCachePages)}, {setcontain.NewStore(cidx, warmCachePages)}}
	var dst []uint32
	for _, o := range ops { // warm the two new stores
		for _, st := range stores[1:] {
			if got, _ := st.exec(o, dst[:0]); got != nil {
				dst = got
			}
		}
	}
	var direct, inproc []int64
	var d [3]time.Duration
	for start, i := time.Now(), 0; i < r.cfg.traceOps && time.Since(start) < budget; i++ {
		o := ops[i%len(ops)]
		r.tr.req.Add(1)
		// Direct and client-backed sharding take turns going first: the
		// second of the two finds the shard engines' lists in the CPU cache.
		order := []int{0, 1, 2}
		if i%2 == 1 {
			order = []int{0, 2, 1}
		}
		for _, k := range order {
			st := stores[k]
			t0 := time.Now()
			got, err := st.exec(o, dst[:0])
			t1 := time.Now()
			r.check(err == nil && slices.Equal(got, o.want), "sharded rung %d, %s: wrong answer (err %v)", k, o.text(), err)
			if got != nil {
				dst = got
			}
			d[k] = t1.Sub(t0)
			r.tr.add([]string{"rung.store", "rung.sharded_direct", "rung.sharded_inproc"}[k], 0, 0, t0, t1)
		}
		direct = append(direct, int64(d[1]-d[0]))
		inproc = append(inproc, int64(d[2]-d[1]))
	}
	r.m.set("sharded.direct_self_us", medianInt(direct)/1e3)
	r.m.set("sharded.inproc_client_self_us", medianInt(inproc)/1e3)
	return nil
}

// scatterSeries derives the scatter / remote numbers of one op from the
// coordinator Store rung's span and the shard-call spans nested under it:
// the rung's self time — its duration minus what the (overlapping) shard
// calls cover — is what scatter-gather and the k-way merge cost themselves.
func (w *serveWorkload) scatterSeries(r *runner, req, rungSpan int64, series map[string][]int64) {
	add := func(name string, d int64) { series[name] = append(series[name], d) }
	spans := r.tr.ofReq(req)
	var lo, hi, sum, bytes, calls int64
	for _, c := range spans {
		if c.Parent != rungSpan {
			continue
		}
		d := c.End - c.Start
		if calls == 0 || d < lo {
			lo = d
		}
		hi = max(hi, d)
		sum += d
		bytes += c.Bytes
		calls++
	}
	if calls == 0 {
		return
	}
	add("scatter.self_us", selfTimes(spans)[rungSpan])
	add("slowest_shard_us", hi)
	add("remote.shard_rtt_us", sum/calls)
	add("remote.shard_skew_us", hi-lo)
	add("remote.bytes_per_op", bytes)
}

func mean(vals []int64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum int64
	for _, v := range vals {
		sum += v
	}
	return float64(sum) / float64(len(vals))
}
