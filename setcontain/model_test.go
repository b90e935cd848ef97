// FuzzModel is the one oracle every serving stack answers to. A seeded
// generator draws a sequence of operations — queries, expressions and
// limits, inserts, deletes, merges, Save→Open, crash→OpenDurable, and
// faults armed at a shard call, a shard's HTTP answer or a filesystem
// operation — and every target replays it: each engine kind built by
// New, a coordinator over in-process shard clients, one over shard
// daemons, and a Durable over a WAL in memory. After every step each
// target is held to internal/naive over a mirror of the records it
// acknowledged, through every public entry point. This file lives in
// the external test package so it can stand daemons up with
// setcontain/serve.
package setcontain_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/naive"
	"repro/internal/wal"
	"repro/setcontain"
	"repro/setcontain/serve"
)

const (
	modelDomain  = 24 // items 0-23; the generator also draws a few past it
	modelRecords = 90
	modelSteps   = 40
)

// shardsOf is the shard count of the sharded targets at seed: 1 to 8.
func shardsOf(seed int64) int { return 1 + int(seed&7) }

// errAny is an expected error whose class the model leaves open: a
// delete of a dead or unknown id fails with a message of the engine's.
// errPanic marks a call that panicked; nothing explains it.
var errAny, errPanic = errors.New("any error"), errors.New("panic")

// model is what one target has acknowledged: the records in id order,
// the tombstones, and where the last merge left the delta.
type model struct {
	d    *dataset.Dataset
	dead map[uint32]bool
	// merged is the record count at the last merge: higher ids are
	// pending. pending is the expected PendingInserts, -1 while unknown
	// (after a merge that failed on some shards, or a crash).
	merged, pending int
	// frozen is the UBT ablation's: no updates, no snapshots.
	frozen bool
}

// match marks the live records e matches, indexed by id: leaves are
// naive scans, the operators walk the tree.
func (m *model) match(e *setcontain.Expr) []bool {
	in := make([]bool, m.d.Len()+1)
	switch e.Op {
	case setcontain.OpLeaf:
		scan := [...]func(*dataset.Dataset, []dataset.Item) []uint32{naive.Subset, naive.Equality, naive.Superset}
		for _, id := range scan[e.Leaf.Pred](m.d, e.Leaf.Items) {
			in[id] = !m.dead[id]
		}
	case setcontain.OpNot:
		kid := m.match(e.Kids[0])
		for id := 1; id < len(in); id++ {
			in[id] = !kid[id] && !m.dead[uint32(id)]
		}
	default:
		and := e.Op == setcontain.OpAnd
		copy(in, m.match(e.Kids[0]))
		for _, k := range e.Kids[1:] {
			kid := m.match(k)
			for id := range in {
				in[id] = and && in[id] && kid[id] || !and && (in[id] || kid[id])
			}
		}
	}
	return in
}

// answer is what op must answer: the ids in ascending order, cut to
// its limit, or the error the op asks for.
func (m *model) answer(op *modelOp) ([]uint32, error) {
	switch {
	case op.limit < 0:
		return nil, setcontain.ErrNegativeLimit
	case op.ended != nil:
		return nil, op.ended
	case alien(op.expr):
		return nil, dataset.ErrItemOutOfDomain
	}
	var ids []uint32
	for id, in := range m.match(op.expr) {
		if in {
			ids = append(ids, uint32(id))
		}
	}
	if op.limit > 0 && len(ids) > op.limit {
		ids = ids[:op.limit]
	}
	return ids, nil
}

// all is the whole live set.
func (m *model) all() []uint32 {
	ids, _ := m.answer(&modelOp{expr: setcontain.ExprOf(setcontain.SubsetQuery(nil))})
	return ids
}

// alien reports whether e names an item outside the domain.
func alien(e *setcontain.Expr) bool {
	if e.Op != setcontain.OpLeaf {
		return slices.ContainsFunc(e.Kids, alien)
	}
	return alienItems(e.Leaf.Items)
}

func alienItems(items []setcontain.Item) bool {
	return slices.ContainsFunc(items, func(it setcontain.Item) bool { return it >= modelDomain })
}

// victim resolves a delete op against the model: the id it names and
// the error the delete must fail with (nil: it must succeed).
func (m *model) victim(op *modelOp) (uint32, error) {
	var pool []uint32
	for id := uint32(1); int(id) <= m.d.Len(); id++ {
		class := victimLive
		if m.dead[id] {
			class = victimDead
		} else if int(id) > m.merged {
			class = victimPending
		}
		if class == op.victim {
			pool = append(pool, id)
		}
	}
	id, err := uint32(0), errAny
	if len(pool) > 0 {
		id = pool[op.pick%len(pool)]
		if op.victim != victimDead {
			err = nil
		}
	} else if op.pick%2 == 1 {
		id = uint32(m.d.Len() + 1 + op.pick%3)
	}
	if m.frozen {
		err = setcontain.ErrNoUpdates
	}
	return id, err
}

type opKind uint8

const (
	opQuery opKind = iota
	opInsert
	opDelete
	opMerge
	opSave   // Save → Open; the Durable checkpoints first
	opCrash  // the Durable crashes and recovers
	opFault  // arm a shard fault for the next step
	opFailFS // fail the Durable's filesystem operation skip+1 from now
)

// Delete victims.
const (
	victimLive = iota
	victimPending
	victimDead
	victimUnknown
)

// Lies a shard daemon's /query answer can tell.
const (
	lieReset      = iota + 1 // the body breaks off mid-stream
	lieCount                 // the final count is one too many
	lieZero                  // a local id 0 comes first
	lieDescending            // a later line's ids sit below an earlier one's
)

type modelOp struct {
	at   int // the step's index in the generated sequence
	kind opKind
	// opQuery.
	expr  *setcontain.Expr
	limit int
	// ended is the error of the context the op is asked under, ended
	// before the call: context.Canceled or DeadlineExceeded (nil: live).
	ended error
	// opInsert.
	set []setcontain.Item
	// opDelete: the victim class, and which of its ids.
	victim, pick int
	// opInsert and opDelete: which of durablePaths the Durable takes.
	via int
	// opFault; opFailFS's count is fault.skip.
	fault shardFault
}

func (op *modelOp) String() string {
	switch op.kind {
	case opQuery:
		return fmt.Sprintf("query %q limit %d ended %v", op.expr, op.limit, op.ended)
	case opInsert:
		return fmt.Sprintf("insert %v via #%d", op.set, op.via)
	case opDelete:
		return fmt.Sprintf("delete %s #%d via #%d", [...]string{"live", "pending", "dead", "unknown"}[op.victim], op.pick, op.via)
	case opFault:
		return fmt.Sprintf("fault %+v", op.fault)
	case opFailFS:
		return fmt.Sprintf("fail fs op %d", op.fault.skip+1)
	}
	return [...]string{opMerge: "merge", opSave: "save", opCrash: "crash"}[op.kind]
}

// genOps draws the op sequence of seed. A fault is followed by an op
// that makes the call it arms.
func genOps(seed int64) []modelOp {
	rng := rand.New(rand.NewSource(seed))
	z := dataset.NewZipf(modelDomain, 0.9)
	var ops []modelOp
	add := func(op modelOp) {
		op.at = len(ops)
		ops = append(ops, op)
	}
	query := func(shape int) modelOp { return randQuery(rng, z, shape) }
	insert := func() modelOp {
		op := modelOp{kind: opInsert, set: z.SampleDistinct(rng, rng.Intn(6)), via: rng.Intn(1000)}
		if rng.Intn(10) == 0 {
			op.set = append(op.set, modelDomain+1)
		}
		return op
	}
	del := func(victim int) modelOp {
		return modelOp{kind: opDelete, victim: victim, pick: rng.Intn(1000), via: rng.Intn(1000)}
	}
	for len(ops) < modelSteps {
		switch r := rng.Intn(100); {
		case r < 40:
			add(query(anyShape))
		case r < 55:
			add(insert())
		case r < 65:
			add(del(rng.Intn(4)))
		case r < 69:
			add(modelOp{kind: opMerge})
		case r < 72:
			add(modelOp{kind: opSave})
		case r < 75:
			add(modelOp{kind: opCrash})
		case r < 85:
			calls := []string{"Session", "AppendExpr", "POST /query", "Insert", "Delete", "MergeDelta", "Info", "Snapshot"}
			f := shardFault{call: calls[rng.Intn(len(calls))], shard: rng.Intn(shardsOf(seed)), skip: rng.Intn(3)}
			dataPlane := strings.HasPrefix(f.call, "Append")
			if !dataPlane && f.call != "POST /query" {
				f.shard = -1 // an insert or delete reaches one shard
			}
			switch rng.Intn(3) {
			case 0:
				f.delay = time.Millisecond
			case 1:
				f.truncate, f.fail = dataPlane, !dataPlane
			default:
				f.fail = true
			}
			add(modelOp{kind: opFault, fault: f})
			switch f.call {
			case "Insert":
				add(insert())
			case "Delete":
				add(del(victimLive))
			case "MergeDelta", "Info":
				add(modelOp{kind: opMerge})
			case "Snapshot":
				add(modelOp{kind: opSave})
			case "AppendExpr":
				add(query(treeShape))
			default: // a Reader opens its sessions on every call
				add(query(plainShape))
			}
		case r < 92:
			lie := shardFault{call: "answer", shard: rng.Intn(shardsOf(seed)), skip: rng.Intn(6), lie: 1 + rng.Intn(4)}
			add(modelOp{kind: opFault, fault: lie})
			add(query(anyShape))
		default:
			add(modelOp{kind: opFailFS, fault: shardFault{skip: rng.Intn(6)}})
			if rng.Intn(2) == 0 {
				add(insert())
			} else {
				add(del(victimLive))
			}
		}
	}
	return ops
}

// Query shapes: any op the generator draws, a plain leaf with no limit
// (what the Query forms take), or a tree with a limit of 0 or more.
const (
	anyShape = iota
	plainShape
	treeShape
)

// randQuery draws a query op of a shape: a leaf or a tree, a limit that
// may be negative, rarely an item outside the domain or a context
// ended before the call.
func randQuery(rng *rand.Rand, z *dataset.Zipf, shape int) modelOp {
	op := modelOp{kind: opQuery, expr: randExpr(rng, z, 3)}
	for shape == treeShape && op.expr.Op == setcontain.OpLeaf {
		op.expr = randExpr(rng, z, 3)
	}
	if shape == plainShape || shape == anyShape && rng.Intn(5) < 2 {
		op.expr = randExpr(rng, z, 0)
	}
	switch r := rng.Intn(20); {
	case shape == plainShape || r < 10:
	case r < 18:
		op.limit = 1 + rng.Intn(8)
	case r == 18:
		op.limit = modelRecords * 2
	case shape == anyShape:
		op.limit = -1
		return op
	}
	if shape == anyShape && op.expr.Op == setcontain.OpLeaf && rng.Intn(10) == 0 {
		op.expr.Leaf.Items = append(op.expr.Leaf.Items, modelDomain+setcontain.Item(rng.Intn(3)))
	} else if shape == anyShape && rng.Intn(12) == 0 {
		op.ended = []error{context.Canceled, context.DeadlineExceeded}[rng.Intn(2)]
	}
	return op
}

// randExpr draws an expression of at most depth levels over Zipf-drawn
// leaves of up to four items.
func randExpr(rng *rand.Rand, z *dataset.Zipf, depth int) *setcontain.Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		pred := setcontain.Predicate(rng.Intn(3))
		return setcontain.ExprOf(setcontain.Query{Pred: pred, Items: z.SampleDistinct(rng, rng.Intn(5))})
	}
	kids := make([]*setcontain.Expr, 2+rng.Intn(2))
	for i := range kids {
		kids[i] = randExpr(rng, z, depth-1)
	}
	switch rng.Intn(5) {
	case 0:
		return setcontain.Not(kids[0])
	case 1, 2:
		return setcontain.And(kids...)
	}
	return setcontain.Or(kids...)
}

// liar is a coordinator's transport to its shard daemons: every /query
// answer is an "answer" call on the board, and a lie fault that hits
// one rewrites it.
type liar struct {
	rt     *http.Transport
	board  *faultBoard
	shards map[string]int // host -> shard
}

func (l *liar) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := l.rt.RoundTrip(r)
	if err != nil || r.URL.Path != "/query" {
		return resp, err
	}
	if f, _ := l.board.before(r.Context(), "answer", l.shards[r.URL.Host]); f != nil && f.lie != 0 {
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		resp.Body = io.NopCloser(tell(f.lie, body))
	}
	return resp, nil
}

func (l *liar) CloseIdleConnections() { l.rt.CloseIdleConnections() }

// tell rewrites an honest /query answer into a lie.
func tell(lie int, body []byte) io.Reader {
	if lie == lieReset {
		return io.MultiReader(bytes.NewReader(body[:len(body)/2]), resetReader{})
	}
	var ids []uint32
	for _, raw := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		var line serve.Result
		json.Unmarshal(raw, &line)
		ids = append(ids, line.IDs...)
	}
	lines := []serve.Result{{IDs: ids, Done: true, Count: len(ids) + 1}}
	switch lie {
	case lieZero:
		lines[0].IDs = append([]uint32{0}, ids...)
	case lieDescending:
		if len(ids) < 2 {
			ids = append(ids, modelRecords*4, modelRecords*4+1)
		}
		h := len(ids) / 2
		lines = []serve.Result{{IDs: ids[h:], More: true}, {IDs: ids[:h], Done: true, Count: len(ids)}}
	}
	var b bytes.Buffer
	for _, line := range lines {
		json.NewEncoder(&b).Encode(line)
	}
	return &b
}

// resetReader is a connection reset in the middle of a body.
type resetReader struct{}

func (resetReader) Read([]byte) (int, error) { return 0, errors.New("connection reset by peer") }

// target is one stack under test with the model of what it
// acknowledged, fronted by a Store and a serve.Server on a live daemon.
type target struct {
	name  string
	idx   *setcontain.Index
	m     *model
	store *setcontain.Store
	srv   *serve.Server
	ts    *httptest.Server
	hc    *http.Client
	// board is the fault switch of the target's shards (nil without).
	board *faultBoard
	// clients are a coordinator's shard clients (nil otherwise); owned
	// says Save→Open replaces the index.
	clients []setcontain.ShardClient
	owned   bool
	// dur, mem and fs are the Durable's, whose log fs fails on cue.
	dur *setcontain.Durable
	mem *wal.MemFS
	fs  *wal.FaultyFS
}

// harness is one replay: the targets over one collection and what to
// close after them.
type harness struct {
	targets []*target
	closers []func()
}

// newHarness builds the targets over the collection of seed, or only
// the ones named. The Durable holds an OIF at even seeds and a sharded
// index at odd ones.
func newHarness(tb testing.TB, seed int64, only ...string) *harness {
	tb.Helper()
	keep := func(name string) bool { return len(only) == 0 || slices.Contains(only, name) }
	rng := rand.New(rand.NewSource(seed))
	z := dataset.NewZipf(modelDomain, 0.9)
	c := setcontain.NewCollection(modelDomain)
	for i := 0; i < modelRecords; i++ {
		c.Add(z.SampleDistinct(rng, rng.Intn(6)))
	}
	hc := &http.Client{Transport: &http.Transport{}}
	h := &harness{closers: []func(){hc.CloseIdleConnections}}
	build := func(kind setcontain.Kind) *setcontain.Index {
		idx, err := setcontain.New(c, setcontain.WithKind(kind), setcontain.WithShards(shardsOf(seed)),
			setcontain.WithPageSize(512), setcontain.WithBlockPostings(8))
		if err != nil {
			tb.Fatal(err)
		}
		return idx
	}
	add := func(tg *target) {
		tg.m = &model{d: dataset.New(modelDomain), dead: map[uint32]bool{}, merged: c.Len(), frozen: tg.idx.Kind() == setcontain.UnorderedBTree}
		for id := uint32(1); int(id) <= c.Len(); id++ {
			set, _ := c.Record(id)
			tg.m.d.Add(set)
		}
		tg.hc = hc
		if tg.clients == nil {
			tg.wrap()
		}
		h.front(tg)
		h.targets = append(h.targets, tg)
	}
	for _, kind := range []setcontain.Kind{setcontain.OIF, setcontain.InvertedFile, setcontain.UnorderedBTree, setcontain.Sharded} {
		if keep(kind.String()) {
			add(&target{name: kind.String(), idx: build(kind), owned: true, board: &faultBoard{}})
		}
	}
	over := func(name string, client func(shard int, eng setcontain.Engine, board *faultBoard) setcontain.ShardClient) {
		if !keep(name) {
			return
		}
		tg := &target{name: name, board: &faultBoard{}}
		for s, eng := range setcontain.ShardEngines(build(setcontain.Sharded).Engine()) {
			tg.clients = append(tg.clients, &faultyClient{client(s, eng, tg.board), tg.board, s})
		}
		var err error
		if tg.idx, err = setcontain.ShardedOverClients(context.Background(), tg.clients); err != nil {
			tb.Fatal(err)
		}
		h.closers = append(h.closers, func() {
			for _, c := range tg.clients {
				c.Close()
			}
		})
		add(tg)
	}
	over("inproc", func(_ int, eng setcontain.Engine, _ *faultBoard) setcontain.ShardClient {
		return setcontain.InprocShard(eng)
	})
	// The daemons answer in chunks of 4 ids, so an answer spans lines.
	over("http", func(s int, eng setcontain.Engine, board *faultBoard) setcontain.ShardClient {
		shard := setcontain.IndexOver(eng)
		sv := serve.NewServer(shard, setcontain.NewStore(shard, 8), serve.Config{ChunkIDs: 4})
		ts := httptest.NewServer(board.daemon(s, sv.Handler()))
		h.closers = append(h.closers, ts.Close, sv.Close)
		lr := &liar{rt: &http.Transport{}, board: board, shards: map[string]int{ts.Listener.Addr().String(): s}}
		return setcontain.NewRemoteShard(ts.URL, &http.Client{Transport: lr})
	})

	if !keep("durable") {
		return h
	}
	durable := &target{name: "durable", idx: build([]setcontain.Kind{setcontain.OIF, setcontain.Sharded}[seed&1]),
		board: &faultBoard{}, mem: wal.NewMemFS()}
	durable.fs = wal.NewFaultyFS(durable.mem, 0)
	var err error
	if durable.dur, err = setcontain.NewDurable("w", durable.idx, durableOptions(durable.fs)); err != nil {
		tb.Fatal(err)
	}
	add(durable)
	h.closers = append(h.closers, func() { durable.dur.Close() })
	return h
}

func durableOptions(fs wal.FS) setcontain.DurableOptions {
	return setcontain.DurableOptions{SegmentBytes: 512, Sync: wal.SyncAlways, CheckpointBytes: -1, FS: fs}
}

// wrap decorates the shard clients of a sharded index the target owns.
func (tg *target) wrap() {
	if tg.idx.Kind() == setcontain.Sharded {
		setcontain.WrapShardClients(tg.idx, func(s int, c setcontain.ShardClient) setcontain.ShardClient {
			return &faultyClient{c, tg.board, s}
		})
	}
}

// front puts a fresh Store (the Durable's own), serve.Server and daemon
// over tg.idx.
func (h *harness) front(tg *target) {
	if tg.ts != nil {
		tg.ts.Close()
		tg.srv.Close()
	}
	tg.store = setcontain.NewStore(tg.idx, 8)
	if tg.dur != nil {
		tg.store = tg.dur.Store()
	}
	tg.srv = serve.NewServer(tg.idx, tg.store, serve.Config{ChunkIDs: 4})
	tg.ts = httptest.NewServer(tg.srv.Handler())
}

func (h *harness) close() {
	for _, tg := range h.targets {
		tg.ts.Close()
		tg.srv.Close()
	}
	for i := len(h.closers) - 1; i >= 0; i-- {
		h.closers[i]()
	}
}

func (h *harness) target(name string) *target {
	for _, tg := range h.targets {
		if tg.name == name {
			return tg
		}
	}
	return nil
}

// path returns the way op's mutation takes: the target's Store, or on
// the Durable the one of durablePaths op draws. A merge draws the
// Durable's own.
func (tg *target) path(op *modelOp) mutationPath {
	if tg.dur == nil {
		return batchPath("Store", tg.store)
	}
	paths := durablePaths(tg.dur, tg.ts.URL, tg.hc)
	return paths[op.via%len(paths)]
}

// crash power-cuts the Durable and recovers it from what its log made
// durable, with a filesystem that no longer fails.
func (h *harness) crash(tg *target) *modelFailure {
	tg.dur.Close()
	tg.mem.Crash()
	tg.fs = wal.NewFaultyFS(tg.mem, 0)
	d, err := setcontain.OpenDurable("w", durableOptions(tg.fs))
	if err != nil {
		return &modelFailure{entry: "OpenDurable", got: show(nil, err), want: "recovered"}
	}
	tg.dur, tg.idx, tg.m.pending = d, d.Index(), -1
	tg.wrap()
	h.front(tg)
	return nil
}

// entryPoint is one public way of asking a target a question; accepts
// says which ops it can express.
type entryPoint struct {
	name    string
	accepts func(op *modelOp) bool
	run     func(ctx context.Context, tg *target, op *modelOp) ([]uint32, error)
}

// A plain op is what the Query forms take: one leaf, no limit. The
// engine-level forms take no ctx, so no op with an ended one either.
func plain(op *modelOp) bool {
	_, leaf := op.expr.AsQuery()
	return leaf && op.limit == 0
}
func plainNoCtx(op *modelOp) bool { return plain(op) && op.ended == nil }
func noCtx(op *modelOp) bool      { return op.ended == nil }
func anyOp(*modelOp) bool         { return true }
func unlimited(op *modelOp) bool  { return op.limit == 0 }
func nonNegative(op *modelOp) bool {
	return op.limit >= 0 // a GET's bad limit is the serve package's 400
}

func leafOf(op *modelOp) setcontain.Query { q, _ := op.expr.AsQuery(); return q }

// naiveQueryable answers the three predicates by the model's scans of
// the live records it holds.
type naiveQueryable struct{ m *model }

func (n naiveQueryable) scan(pred setcontain.Predicate, qs []setcontain.Item) ([]uint32, error) {
	return n.m.answer(&modelOp{expr: setcontain.ExprOf(setcontain.Query{Pred: pred, Items: qs})})
}

func (n naiveQueryable) Subset(qs []setcontain.Item) ([]uint32, error) {
	return n.scan(setcontain.PredicateSubset, qs)
}

func (n naiveQueryable) Equality(qs []setcontain.Item) ([]uint32, error) {
	return n.scan(setcontain.PredicateEquality, qs)
}

func (n naiveQueryable) Superset(qs []setcontain.Item) ([]uint32, error) {
	return n.scan(setcontain.PredicateSuperset, qs)
}

// prefixed runs an append form onto a two-id dst it must leave alone.
func prefixed(run func(dst []uint32) ([]uint32, error)) ([]uint32, error) {
	got, err := run([]uint32{7, 3})
	if err == nil && (len(got) < 2 || got[0] != 7 || got[1] != 3) {
		err = fmt.Errorf("dst prefix [7 3] clobbered: %v", got)
	}
	if err != nil {
		return nil, err
	}
	return got[2:], nil
}

var entryPoints = []entryPoint{
	{"Query.Eval", plainNoCtx, func(_ context.Context, tg *target, op *modelOp) ([]uint32, error) {
		return leafOf(op).Eval(tg.idx)
	}},
	{"Index.EvalExprLimit", noCtx, func(_ context.Context, tg *target, op *modelOp) ([]uint32, error) {
		return tg.idx.EvalExprLimit(op.expr, op.limit)
	}},
	{"Query.EvalAppend(Reader)", plainNoCtx, func(_ context.Context, tg *target, op *modelOp) ([]uint32, error) {
		r, err := tg.idx.NewReader(8)
		if err != nil {
			return nil, err
		}
		return prefixed(func(dst []uint32) ([]uint32, error) { return leafOf(op).EvalAppend(dst, r) })
	}},
	// Expr.Eval is the product's naive evaluator: a target like the rest.
	{"Expr.Eval", func(op *modelOp) bool { return unlimited(op) && noCtx(op) }, func(_ context.Context, tg *target, op *modelOp) ([]uint32, error) {
		return op.expr.Eval(tg.idx)
	}},
	// The same evaluator over a plain Queryable — neither an Index nor
	// append-capable — whose leaves are the model's own scans.
	{"Expr.Eval(Queryable)", func(op *modelOp) bool { return unlimited(op) && noCtx(op) }, func(_ context.Context, tg *target, op *modelOp) ([]uint32, error) {
		return op.expr.Eval(naiveQueryable{tg.m})
	}},
	{"Store.Exec", plain, func(ctx context.Context, tg *target, op *modelOp) ([]uint32, error) {
		return tg.store.Exec(ctx, leafOf(op))
	}},
	{"Store.ExecAppend", plain, func(ctx context.Context, tg *target, op *modelOp) ([]uint32, error) {
		return prefixed(func(dst []uint32) ([]uint32, error) { return tg.store.ExecAppend(ctx, dst, leafOf(op)) })
	}},
	{"Store.ExecExprAppend", unlimited, func(ctx context.Context, tg *target, op *modelOp) ([]uint32, error) {
		return prefixed(func(dst []uint32) ([]uint32, error) { return tg.store.ExecExprAppend(ctx, dst, op.expr) })
	}},
	// A planned request counts once in ExprStats, and on one engine each
	// of its leaves is evaluated or skipped; one plain leaf skips the
	// planner.
	{"Store.ExecExprLimitAppend", anyOp, func(ctx context.Context, tg *target, op *modelOp) ([]uint32, error) {
		before := tg.store.ExprStats()
		ids, err := prefixed(func(dst []uint32) ([]uint32, error) {
			return tg.store.ExecExprLimitAppend(ctx, dst, op.expr, op.limit)
		})
		after := tg.store.ExprStats()
		exprs := after.Expressions - before.Expressions
		leaves := after.EvaluatedLeaves + after.SkippedLeaves - before.EvaluatedLeaves - before.SkippedLeaves
		wantExprs, wantLeaves := int64(1), int64(op.expr.Leaves())
		if plain(op) {
			wantExprs, wantLeaves = 0, 0
		}
		if tg.idx.Kind() == setcontain.Sharded { // the shards that report leaves sum them
			leaves = wantLeaves
		}
		if err == nil && (exprs != wantExprs || leaves != wantLeaves) {
			return nil, fmt.Errorf("ExprStats moved by %d expressions, %d leaves evaluated or skipped; want %d, %d",
				exprs, leaves, wantExprs, wantLeaves)
		}
		return ids, err
	}},
	// The whole live set rides along, second: answers keep their order.
	{"Store.ExecBatch", plain, func(ctx context.Context, tg *target, op *modelOp) ([]uint32, error) {
		out, err := tg.store.ExecBatch(ctx, []setcontain.Query{leafOf(op), setcontain.SubsetQuery(nil)})
		if err == nil && !slices.Equal(out[1], tg.m.all()) {
			err = fmt.Errorf("subset{} batched second answered %v", out[1])
		}
		if err != nil {
			return nil, err
		}
		return out[0], nil
	}},
	{"Batcher.DoExprLimit", anyOp, func(ctx context.Context, tg *target, op *modelOp) ([]uint32, error) {
		return prefixed(func(dst []uint32) ([]uint32, error) {
			return tg.srv.Batcher().DoExprLimit(ctx, dst, op.expr, op.limit)
		})
	}},
	{"POST /query", anyOp, func(ctx context.Context, tg *target, op *modelOp) ([]uint32, error) {
		body, _ := json.Marshal(serve.QueryRequest{Queries: []serve.QuerySpec{{Expr: op.expr.String(), Limit: op.limit}}})
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, tg.ts.URL+"/query", bytes.NewReader(body))
		return tg.ask(req)
	}},
	{"GET /query", nonNegative, func(ctx context.Context, tg *target, op *modelOp) ([]uint32, error) {
		return tg.get(ctx, "/query", op)
	}},
	{"GET /stream", nonNegative, func(ctx context.Context, tg *target, op *modelOp) ([]uint32, error) {
		return tg.get(ctx, "/stream", op)
	}},
}

func (tg *target) get(ctx context.Context, path string, op *modelOp) ([]uint32, error) {
	u := fmt.Sprintf("%s%s?q=%s&limit=%d", tg.ts.URL, path, url.QueryEscape(op.expr.String()), op.limit)
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	return tg.ask(req)
}

// ask sends one query request to the target's daemon and reads its
// NDJSON answer: the ids of a complete stream, or its error line, or
// the 400's.
func (tg *target) ask(req *http.Request) ([]uint32, error) {
	resp, err := tg.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e serve.QueryErrorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, e.Error)
	}
	var ids []uint32
	for dec := json.NewDecoder(resp.Body); ; {
		var line serve.Result
		if err := dec.Decode(&line); err != nil {
			return nil, fmt.Errorf("stream ended before its final line: %w", err)
		}
		if line.Error != "" {
			return nil, errors.New(line.Error)
		}
		ids = append(ids, line.IDs...)
		if line.Done && line.Count != len(ids) {
			return nil, fmt.Errorf("final count %d, streamed %d ids", line.Count, len(ids))
		} else if line.Done {
			return ids, nil
		}
	}
}

// guard turns a panic in call into an errPanic error.
func guard(call func() ([]uint32, error)) (ids []uint32, err error) {
	defer func() {
		if p := recover(); p != nil {
			ids, err = nil, fmt.Errorf("%w: %v", errPanic, p)
		}
	}()
	return call()
}

// explains reports whether err is the failure want asks for: the same
// class, matched by errors.Is or — across a wire, where only the text
// survives — by the sentinel's message.
func explains(want, err error) bool {
	if err == nil || want == nil || errors.Is(err, errPanic) {
		return false
	}
	return want == errAny || errors.Is(err, want) || strings.Contains(err.Error(), want.Error())
}

// blames reports whether err owns up to the fault that hit the call:
// the injected failure, or a shard error naming the shard hit.
func blames(err error, shard int) bool {
	var se *setcontain.ShardError
	return explains(errInjected, err) || explains(wal.ErrInjected, err) || explains(errAny, err) &&
		(errors.As(err, &se) && se.Shard == shard || strings.Contains(err.Error(), fmt.Sprintf("shard %d:", shard)))
}

// modelFailure is the first disagreement of a replay.
type modelFailure struct {
	step                         int
	target, entry, op, got, want string
}

func (f *modelFailure) String() string {
	return fmt.Sprintf("step=%d target=%s entry=%s op=%s got=%s want=%s", f.step, f.target, f.entry, f.op, f.got, f.want)
}

// mismatch is the failure of entry answering got (or err) where the
// model wants want (or wantErr); two id lists are shown with what one
// has and the other lacks.
func mismatch(entry string, got []uint32, err error, want []uint32, wantErr error) *modelFailure {
	f := &modelFailure{entry: entry, got: show(got, err), want: show(want, wantErr)}
	if err == nil && wantErr == nil {
		lacks := func(a, b []uint32) []uint32 {
			return slices.DeleteFunc(slices.Clone(a), func(id uint32) bool { return slices.Contains(b, id) })
		}
		f.got += fmt.Sprintf(" (extra %v, missing %v)", lacks(got, want), lacks(want, got))
	}
	return f
}

// show prints an answer for a failure line: the ids, or the error.
func show(ids []uint32, err error) string {
	switch {
	case err != nil:
		return "error " + err.Error()
	case len(ids) > 24:
		return fmt.Sprintf("%v… (%d ids)", ids[:24], len(ids))
	}
	return fmt.Sprint(ids)
}

// replay runs ops on a fresh harness of seed and returns the first
// failure.
func replay(tb testing.TB, seed int64, ops []modelOp) *modelFailure {
	h := newHarness(tb, seed)
	defer h.close()
	return h.run(ops)
}

// run replays ops on the harness's targets and returns the first
// failure.
func (h *harness) run(ops []modelOp) *modelFailure {
	var armed *shardFault // the fault armed for this step
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case opFault:
			armed = &op.fault
			continue
		case opFailFS:
			if tg := h.target("durable"); tg != nil {
				tg.fs.FailAt = tg.fs.Ops() + int64(op.fault.skip) + 1
			}
			continue
		}
		for _, tg := range h.targets {
			if armed != nil {
				tg.board.arm(*armed)
			}
			f := h.step(tg, op, armed)
			tg.board.disarm()
			if f == nil {
				f = h.check(tg)
			}
			if f != nil {
				f.step, f.target, f.op = op.at, tg.name, op.String()
				return f
			}
		}
		armed = nil
	}
	return nil
}

// step applies op to one target and judges every answer it gives.
func (h *harness) step(tg *target, op *modelOp, armed *shardFault) *modelFailure {
	// judge holds one call to the model: want it answered, or failing as
	// asked, or — when a fault hit it — failing and saying so. A
	// filesystem failure under the Durable may fail the call, or not.
	judge := func(entry string, call func() ([]uint32, error), want []uint32, wantErr error) *modelFailure {
		before, tripped := tg.board.firedCount(), tg.fs != nil && tg.fs.Tripped()
		got, err := guard(call)
		hit := tg.board.firedCount() > before && armed.delay == 0
		fsHit := !tripped && tg.fs != nil && tg.fs.Tripped()
		switch {
		case err == nil && wantErr == nil && !hit && slices.Equal(got, want):
		case hit && blames(err, armed.shard), fsHit && blames(err, -1), explains(wantErr, err):
		default:
			return mismatch(entry, got, err, want, wantErr)
		}
		return nil
	}
	var err error // a mutation's
	mutate := func(entry string, wantErr error, call func() error) *modelFailure {
		return judge(entry, func() ([]uint32, error) { err = call(); return nil, err }, nil, wantErr)
	}
	var f *modelFailure
	switch op.kind {
	case opQuery:
		ctx, cancel := context.WithCancel(context.Background())
		if op.ended == context.DeadlineExceeded {
			ctx, cancel = context.WithDeadline(ctx, time.Now().Add(-time.Second))
		}
		defer cancel()
		if op.ended == context.Canceled {
			cancel()
		}
		want, wantErr := tg.m.answer(op)
		for _, ep := range entryPoints {
			if ep.accepts(op) {
				if f := judge(ep.name, func() ([]uint32, error) { return ep.run(ctx, tg, op) }, want, wantErr); f != nil {
					return f
				}
			}
		}
		return nil
	case opInsert:
		want, wantErr := []uint32{uint32(tg.m.d.Len() + 1)}, error(nil)
		if tg.m.frozen {
			wantErr = setcontain.ErrNoUpdates
		} else if alienItems(op.set) {
			wantErr = dataset.ErrItemOutOfDomain
		}
		p := tg.path(op)
		f = judge("Insert via "+p.name, func() ([]uint32, error) {
			var id uint32
			if id, err = p.insert(op.set); err != nil {
				return nil, err
			}
			return []uint32{id}, nil
		}, want, wantErr)
		if f == nil && err == nil {
			tg.m.d.Add(op.set)
			if tg.m.pending >= 0 {
				tg.m.pending++
			}
		}
	case opDelete:
		id, wantErr := tg.m.victim(op)
		p := tg.path(op)
		if f = mutate(fmt.Sprintf("Delete(%d) via %s", id, p.name), wantErr, func() error { return p.del(id) }); f == nil && err == nil {
			tg.m.dead[id] = true
		}
	case opMerge:
		wantErr := error(nil)
		if tg.m.frozen {
			wantErr = setcontain.ErrNoUpdates
		}
		f = mutate("MergeDelta", wantErr, tg.path(op).merge)
		switch {
		case f != nil || tg.m.frozen:
		case err == nil:
			tg.m.merged, tg.m.pending = tg.m.d.Len(), 0
		default: // some shards merged
			tg.m.pending = -1
		}
	case opSave:
		wantErr := error(nil)
		if tg.m.frozen {
			wantErr = setcontain.ErrNoSnapshots
		}
		var buf bytes.Buffer
		f = mutate("Save", wantErr, func() error {
			if tg.dur == nil {
				return tg.idx.Save(&buf)
			} else if err := tg.dur.Checkpoint(); err != nil {
				return err
			}
			return tg.dur.Index().Save(&buf)
		})
		if f == nil && err == nil {
			f = h.restore(tg, &buf)
		}
	case opCrash:
		if tg.dur != nil {
			return h.crash(tg)
		}
	}
	// A Durable whose filesystem failed under the step crashes: only what
	// it acknowledged may survive.
	if f == nil && tg.fs != nil && tg.fs.Tripped() {
		f = h.crash(tg)
	}
	return f
}

// restore opens a saved snapshot and holds it to the model; a target
// that owns its index goes on with the restored one.
func (h *harness) restore(tg *target, snap io.Reader) *modelFailure {
	restored, err := setcontain.Open(snap)
	if err == nil && restored.Kind() != tg.idx.Kind() {
		err = fmt.Errorf("restored a %v", restored.Kind())
	}
	if err != nil {
		return &modelFailure{entry: "Open", got: show(nil, err), want: "a " + tg.idx.Kind().String()}
	}
	if f := checkIndex(tg.m, restored, "Open"); f != nil || !tg.owned {
		return f
	}
	tg.idx = restored
	tg.wrap()
	h.front(tg)
	return nil
}

// check holds a target's state to its model after a step: the counts,
// and the whole live set through the index and the Store.
func (h *harness) check(tg *target) *modelFailure {
	if f := checkIndex(tg.m, tg.idx, "Index"); f != nil {
		return f
	}
	got, err := guard(func() ([]uint32, error) { return tg.store.Exec(context.Background(), setcontain.SubsetQuery(nil)) })
	if want := tg.m.all(); err != nil || !slices.Equal(got, want) {
		return mismatch("Store.Exec(subset{}) after the step", got, err, want, nil)
	}
	return nil
}

// checkIndex holds idx's record, tombstone and pending counts and its
// whole live set to m.
func checkIndex(m *model, idx *setcontain.Index, entry string) *modelFailure {
	pending := m.pending
	if pending < 0 {
		pending = idx.PendingInserts()
	}
	got := fmt.Sprintf("records %d deleted %d pending %d", idx.NumRecords(), idx.Deleted(), idx.PendingInserts())
	want := fmt.Sprintf("records %d deleted %d pending %d", m.d.Len(), len(m.dead), pending)
	if got != want {
		return &modelFailure{entry: entry + " counts", got: got, want: want}
	}
	ids, err := guard(func() ([]uint32, error) { return idx.Subset(nil) })
	if all := m.all(); err != nil || !slices.Equal(ids, all) {
		return mismatch(entry+".Subset(nil)", ids, err, all, nil)
	}
	return nil
}

// shrink drops ops — halves, then quarters, down to single ops — for as
// long as the replay still fails, and returns what is left.
func shrink(tb testing.TB, seed int64, ops []modelOp) []modelOp {
	budget := 150
	for chunk := len(ops) / 2; chunk >= 1; chunk /= 2 {
		for i := 0; i+chunk <= len(ops) && budget > 0; budget-- {
			if cand := append(slices.Clip(ops[:i]), ops[i+chunk:]...); replay(tb, seed, cand) != nil {
				ops = cand
			} else {
				i += chunk
			}
		}
	}
	return ops
}

// FuzzModel replays the op sequence of a seed on every target and
// holds each to the model after every step. A failing sequence is
// shrunk, then reported in one line: the seed, the step (its index in
// the generated sequence), the target, the entry point, the op, and
// what came back against what the model wants.
func FuzzModel(f *testing.F) {
	seeds := int64(32)
	if raceEnabled {
		seeds = 6 // the detector makes every HTTP round trip dear
	}
	for seed := int64(1); seed <= seeds; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		ops := genOps(seed)
		if replay(t, seed, ops) == nil {
			return
		}
		ops = shrink(t, seed, ops)
		fail := replay(t, seed, ops)
		if fail == nil {
			t.Fatalf("FuzzModel seed=%d: the failure did not reproduce after shrinking", seed)
		}
		kept := make([]int, len(ops))
		for i, op := range ops {
			kept[i] = op.at
		}
		t.Fatalf("FuzzModel seed=%d %v (replayed steps %v)", seed, fail, kept)
	})
}
