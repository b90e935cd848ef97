package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wal"
	"repro/setcontain"
)

// maxRequestBytes bounds a POST /query body (and an /admin body).
const maxRequestBytes = 8 << 20

// maxQueriesPerRequest bounds the queries of one POST /query. Its
// queries are admitted one after another on the handler's goroutine,
// so a request costs what it carries; a longer one is refused with 400
// before any query runs.
const maxQueriesPerRequest = 1024

// Server is the HTTP face of a Store: a Batcher bounding admission plus
// the handlers described in the package documentation. Create one with
// NewServer, mount Handler on any mux or http.Server, and Close when
// done.
type Server struct {
	idx     *setcontain.Index
	store   *setcontain.Store
	batcher *Batcher
	cfg     Config
	start   time.Time

	// mut is the mutation path behind the /admin endpoints: the plain
	// store, or the Durable when cfg.Durable attaches a write-ahead log.
	mut     setcontain.Mutator
	durable *setcontain.Durable

	bufs sync.Pool // *[]uint32 answer buffers, recycled across requests

	// admin serializes the mutating endpoints (insert, delete, merge,
	// snapshot — a snapshot mutates the engine's own buffer pool while
	// it reads) against each other and against the read-only handlers
	// that inspect mutable index state (/healthz, /stats take the read
	// side). Queries keep flowing — they run on the Store's pooled
	// readers, and each individual mutation goes through Store.Update,
	// which additionally excludes it from pooled-reader creation.
	admin sync.RWMutex

	streamsServed   atomic.Int64
	streamsAborted  atomic.Int64
	snapshotsServed atomic.Int64
	snapshotsFailed atomic.Int64
}

// NewServer wraps idx and its store in a serving layer configured by
// cfg (zero value for defaults). The store must serve the same index;
// the server uses idx only for identity ( /healthz, shard plans) and
// routes every query through store. Close stops admission.
func NewServer(idx *setcontain.Index, store *setcontain.Store, cfg Config) *Server {
	cfg = cfg.filled()
	var mut setcontain.Mutator = store
	if cfg.Durable != nil {
		mut = cfg.Durable
	}
	return &Server{
		idx:     idx,
		store:   store,
		batcher: NewBatcher(store, cfg),
		cfg:     cfg,
		start:   time.Now(),
		mut:     mut,
		durable: cfg.Durable,
	}
}

// Batcher exposes the server's batcher (load tests assert on its
// statistics directly).
func (s *Server) Batcher() *Batcher { return s.batcher }

// Close stops the batcher's admission: queries waiting for a slot, and
// every later one, fail with ErrClosed, while a query already executing
// finishes under its request's context. The HTTP listener (owned by the
// caller) is unaffected; close the server once it has drained.
func (s *Server) Close() { s.batcher.Close() }

// Handler returns the route mux:
//
//	POST /query, GET /query?q=…, GET /stream?q=…, GET /stats, GET /healthz
//	POST /admin/insert, /admin/delete, /admin/merge, /admin/snapshot, /admin/checkpoint
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/stream", s.handleStream)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/admin/insert", s.handleInsert)
	mux.HandleFunc("/admin/delete", s.handleDelete)
	mux.HandleFunc("/admin/merge", s.handleMerge)
	mux.HandleFunc("/admin/snapshot", s.handleSnapshot)
	mux.HandleFunc("/admin/checkpoint", s.handleCheckpoint)
	return mux
}

// getBuf borrows an answer buffer; putBuf returns it.
func (s *Server) getBuf() []uint32 {
	if p, _ := s.bufs.Get().(*[]uint32); p != nil {
		return (*p)[:0]
	}
	return make([]uint32, 0, 1024)
}

func (s *Server) putBuf(buf []uint32) { s.bufs.Put(&buf) }

// exprReq is one parsed query of a request: the expression tree plus
// its answer limit (0 = unlimited).
type exprReq struct {
	expr  *setcontain.Expr
	limit int
}

// parseLimit reads an optional ?limit= query parameter: absent means
// unlimited (0), anything that is not a non-negative integer is a
// client error.
func parseLimit(r *http.Request) (int, error) {
	raw := r.URL.Query().Get("limit")
	if raw == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("serve: limit must be a non-negative integer, got %q", raw)
	}
	return n, nil
}

// parseRequest extracts the request's queries as expression trees: the
// JSON body on POST (structured Pred/Items specs and textual Expr
// specs alike), the ?q= textual form on GET, both through the
// setcontain.ParseExpr grammar — a plain predicate parses as its
// one-leaf degenerate expression. Each query carries its answer limit:
// the spec's "limit" field on POST, the ?limit= parameter on GET; a
// negative limit is a client error. Parse failures surface the
// *setcontain.ParseError so the handler can answer with the offset.
func parseRequest(r *http.Request) ([]exprReq, error) {
	switch r.Method {
	case http.MethodPost:
		var req QueryRequest
		dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxRequestBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return nil, fmt.Errorf("serve: decoding request: %w", err)
		}
		if len(req.Queries) == 0 {
			return nil, errors.New("serve: request carries no queries")
		}
		if len(req.Queries) > maxQueriesPerRequest {
			return nil, fmt.Errorf("serve: request carries %d queries, over the bound of %d per request",
				len(req.Queries), maxQueriesPerRequest)
		}
		es := make([]exprReq, len(req.Queries))
		for i, spec := range req.Queries {
			if spec.Limit < 0 {
				return nil, fmt.Errorf("serve: query %d: %w", i, setcontain.ErrNegativeLimit)
			}
			e, err := parseSpec(spec)
			if err != nil {
				return nil, fmt.Errorf("serve: query %d: %w", i, err)
			}
			es[i] = exprReq{expr: e, limit: spec.Limit}
		}
		return es, nil
	case http.MethodGet:
		limit, err := parseLimit(r)
		if err != nil {
			return nil, err
		}
		e, err := setcontain.ParseExpr(r.URL.Query().Get("q"))
		if err != nil {
			return nil, err
		}
		return []exprReq{{expr: e, limit: limit}}, nil
	default:
		return nil, fmt.Errorf("serve: method %s not allowed", r.Method)
	}
}

// writeQueryError answers a failed request parse as JSON: positioned
// *setcontain.ParseError failures carry the byte offset of the failing
// token alongside the message, so clients point at the error instead
// of re-lexing it.
func writeQueryError(w http.ResponseWriter, err error, status int) {
	body := QueryErrorResponse{Error: err.Error()}
	var pe *setcontain.ParseError
	if errors.As(err, &pe) {
		off := pe.Offset
		body.Offset = &off
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

// handleQuery answers a request's queries through the batcher, one
// after another, streaming NDJSON result chunks in query order.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	qs, err := parseRequest(r)
	if err != nil {
		status := http.StatusBadRequest
		if r.Method != http.MethodGet && r.Method != http.MethodPost {
			status = http.StatusMethodNotAllowed
		}
		writeQueryError(w, err, status)
		return
	}
	s.answer(r.Context(), w, qs, nil)
}

// handleStream is GET /query with a flush after every NDJSON chunk, so
// a client consumes an arbitrarily large answer incrementally. The
// query goes through the batcher's admission like any other, and a
// client that disconnects cancels the request context, which interrupts
// the Store execution between list-block reads and stops the chunk loop
// once streaming has begun.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "serve: GET only", http.StatusMethodNotAllowed)
		return
	}
	qs, err := parseRequest(r)
	if err != nil {
		writeQueryError(w, err, http.StatusBadRequest)
		return
	}
	flusher, _ := w.(http.Flusher)
	switch err := s.answer(r.Context(), w, qs, flusher); {
	case err == nil:
		s.streamsServed.Add(1)
	case !errors.Is(err, ErrSaturated):
		s.streamsAborted.Add(1)
	}
}

// answer submits the parsed queries to the batcher one by one and
// streams each answer as NDJSON chunks in query order, flushing every
// chunk when flusher is non-nil. It returns nil once every query was
// answered in full, else the first error that kept one from being: the
// client's (ctx ended or a write failed — the response stops there),
// ErrSaturated before the first byte (the request is refused with 429),
// or a query's own (reported on its final line; the rest still run).
func (s *Server) answer(ctx context.Context, w http.ResponseWriter, qs []exprReq, flusher http.Flusher) error {
	enc := json.NewEncoder(w)
	started := false
	start := func() {
		if !started {
			started = true
			w.Header().Set("Content-Type", "application/x-ndjson")
		}
	}
	var failed error
	for i, q := range qs {
		out, err := s.batcher.DoExprLimit(ctx, s.getBuf(), q.expr, q.limit)
		switch {
		case err == nil:
			start()
			werr := s.writeIDs(ctx, enc, flusher, i, out)
			s.putBuf(out)
			if werr != nil {
				return werr // client gone; remaining queries were never admitted
			}
		case errors.Is(err, ErrSaturated) && !started:
			// Nothing written yet: refuse the whole request so the
			// client retries with backoff.
			w.Header().Set("Retry-After", "1")
			http.Error(w, err.Error(), http.StatusTooManyRequests)
			s.putBuf(out)
			return err
		case ctx.Err() != nil:
			// Client disconnected or deadline passed.
			s.putBuf(out)
			return ctx.Err()
		default:
			start()
			s.putBuf(out)
			if werr := enc.Encode(Result{Query: i, Done: true, Error: err.Error()}); werr != nil {
				return werr
			}
			if failed == nil {
				failed = err
			}
		}
	}
	return failed
}

// writeIDs streams one query's materialized answer as NDJSON chunks of
// at most cfg.ChunkIDs ids, honouring ctx between chunks and flushing
// each chunk when flusher is non-nil.
func (s *Server) writeIDs(ctx context.Context, enc *json.Encoder, flusher http.Flusher, query int, ids []uint32) error {
	chunk := s.cfg.ChunkIDs
	total := len(ids)
	for len(ids) > chunk {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := enc.Encode(Result{Query: query, IDs: ids[:chunk], More: true}); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		ids = ids[chunk:]
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return enc.Encode(Result{Query: query, IDs: ids, Done: true, Count: total})
}

// handleStats reports the serving-side counters; see StatsResponse.
// The shard plans live in mutable engine state (Insert bumps per-shard
// record counts), so the handler holds the admin read lock.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.admin.RLock()
	defer s.admin.RUnlock()
	bst := s.batcher.Stats()
	sst := s.store.Stats()
	resp := StatsResponse{
		Batcher: BatcherStatsJSON{
			Queries:  bst.Queries,
			Rejected: bst.Rejected,
			Canceled: bst.Canceled,
			Pending:  bst.Pending,
		},
		Store: StoreStatsJSON{
			CacheHits: sst.Cache.Hits,
			PageReads: sst.Cache.PageReads,
		},
		Streams: StreamStatsJSON{
			Served:  s.streamsServed.Load(),
			Aborted: s.streamsAborted.Load(),
		},
		Snapshots: SnapshotStatsJSON{
			Served: s.snapshotsServed.Load(),
			Failed: s.snapshotsFailed.Load(),
		},
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	est := s.store.ExprStats()
	resp.Planner = PlannerStatsJSON{
		Expressions:     est.Expressions,
		EvaluatedLeaves: est.EvaluatedLeaves,
		StreamedLeaves:  est.StreamedLeaves,
		SkippedLeaves:   est.SkippedLeaves,
		Theta:           s.store.Supports().Theta,
	}
	for _, p := range setcontain.ShardPlans(s.idx.Engine()) {
		resp.ShardPlans = append(resp.ShardPlans, ShardPlanJSON{
			Shard:         p.Shard,
			Kind:          p.Kind.String(),
			Records:       p.Records,
			Theta:         p.Theta,
			BlockPostings: p.BlockPostings,
		})
	}
	if s.durable != nil {
		resp.WAL = walStatsJSON(s.durable.Stats())
	}
	writeJSON(w, resp)
}

// walStatsJSON renders the durability layer's counters for /stats.
func walStatsJSON(st setcontain.DurableStats) *WALStatsJSON {
	j := &WALStatsJSON{
		Segments:             st.Log.Segments,
		TotalBytes:           st.Log.TotalBytes,
		LastLSN:              st.Log.LastLSN,
		CheckpointLSN:        st.CheckpointLSN,
		BytesSinceCheckpoint: st.Log.BytesSinceCheckpoint,
		Appends:              st.Log.Appends,
		Syncs:                st.Log.Syncs,
		LastSyncMicros:       float64(st.Log.LastSyncNanos) / 1e3,
		Checkpoints:          st.Checkpoints,
		ReplayRecords:        st.Replay.Records,
		ReplayMillis:         float64(st.Replay.Duration.Nanoseconds()) / 1e6,
		ReplayTruncated:      st.Replay.Truncated,
		Wedged:               st.Log.Wedged,
	}
	if st.Log.Syncs > 0 {
		j.MeanSyncMicros = float64(st.Log.TotalSyncNanos) / float64(st.Log.Syncs) / 1e3
	}
	return j
}

// handleHealthz reports liveness plus the served index's identity. The
// record/pending/deleted gauges read mutable index state, hence the
// admin read lock.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.admin.RLock()
	defer s.admin.RUnlock()
	resp := HealthResponse{
		OK:      true,
		Kind:    s.idx.Kind().String(),
		Records: s.idx.NumRecords(),
		Domain:  s.idx.Engine().DomainSize(),
		Pending: s.idx.PendingInserts(),
		Deleted: s.idx.Deleted(),
	}
	if s.durable != nil {
		st := s.durable.Stats()
		resp.WAL = &WALHealthJSON{
			LastLSN:       st.Log.LastLSN,
			CheckpointLSN: st.CheckpointLSN,
			Segments:      st.Log.Segments,
			Wedged:        st.Log.Wedged,
		}
	}
	writeJSON(w, resp)
}

// decodeAdminBody decodes a POST body into v with the same limits and
// strictness as the query path; a false return means the response was
// already written.
func decodeAdminBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "serve: POST only", http.StatusMethodNotAllowed)
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		http.Error(w, fmt.Sprintf("serve: decoding request: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

// mutationStatus picks the HTTP status for a failed mutation by
// inspecting the error itself: one that went through a wedged
// write-ahead log is a server-side durability fault (503 — the process
// must restart to recover), anything else is the request's own engine
// error (400). Classifying the returned error, not the log's current
// state, keeps a concurrent wedge from mislabeling an unrelated
// request's engine error — and vice versa.
func mutationStatus(err error) int {
	if errors.Is(err, wal.ErrWedged) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// handleInsert adds records through the mutation path — the plain store
// or, with a WAL attached, the logged path that acknowledges only after
// the records are durable — and reports the assigned ids. On a
// mid-batch failure the earlier inserts of the request stick; the error
// names the failing set.
func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req InsertRequest
	if !decodeAdminBody(w, r, &req) {
		return
	}
	if len(req.Sets) == 0 {
		http.Error(w, "serve: request carries no sets", http.StatusBadRequest)
		return
	}
	s.admin.Lock()
	defer s.admin.Unlock()
	ids, err := s.mut.InsertSets(req.Sets)
	if err != nil {
		// The inserts before the failing set stick (with a WAL they are
		// already durably acknowledged server-side), so the client must
		// learn their ids: a plain error with the ids discarded would
		// leave it unable to reconcile the partial batch.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(mutationStatus(err))
		json.NewEncoder(w).Encode(InsertErrorResponse{
			Error:     fmt.Sprintf("serve: %v", err),
			IDs:       ids,
			FailedSet: len(ids),
		})
		return
	}
	writeJSON(w, InsertResponse{IDs: ids})
}

// handleDelete tombstones records through the mutation path, so the ids
// vanish from every answer served after the response (and, with a WAL,
// survive a crash once acknowledged).
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req DeleteRequest
	if !decodeAdminBody(w, r, &req) {
		return
	}
	if len(req.IDs) == 0 {
		http.Error(w, "serve: request carries no ids", http.StatusBadRequest)
		return
	}
	s.admin.Lock()
	defer s.admin.Unlock()
	if err := s.mut.DeleteIDs(req.IDs); err != nil {
		http.Error(w, fmt.Sprintf("serve: %v", err), mutationStatus(err))
		return
	}
	writeJSON(w, DeleteResponse{Deleted: len(req.IDs)})
}

// handleMerge folds pending inserts and tombstones into the disk
// structures (setcontain.Index.MergeDelta) and refreshes the store.
func (s *Server) handleMerge(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "serve: POST only", http.StatusMethodNotAllowed)
		return
	}
	s.admin.Lock()
	defer s.admin.Unlock()
	if err := s.mut.MergeDelta(); err != nil {
		http.Error(w, fmt.Sprintf("serve: merge: %v", err), http.StatusInternalServerError)
		return
	}
	writeJSON(w, AdminStateResponse{
		Records: s.idx.NumRecords(),
		Pending: s.idx.PendingInserts(),
		Deleted: s.idx.Deleted(),
	})
}

// handleCheckpoint folds the write-ahead log into a fresh checkpoint
// snapshot and truncates the covered segments. Without a WAL attached
// the endpoint answers 412: there is no log to fold.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "serve: POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.durable == nil {
		http.Error(w, "serve: no write-ahead log attached (start with -wal-dir)", http.StatusPreconditionFailed)
		return
	}
	// No admin lock: Checkpoint serializes against mutations on the
	// Durable's own mutex, and holding admin here would stall mutation
	// traffic for the whole snapshot write rather than its serialize step.
	if err := s.durable.Checkpoint(); err != nil {
		http.Error(w, fmt.Sprintf("serve: checkpoint: %v", err), http.StatusInternalServerError)
		return
	}
	st := s.durable.Stats()
	writeJSON(w, CheckpointResponse{
		CheckpointLSN: st.CheckpointLSN,
		Segments:      st.Log.Segments,
		LogBytes:      st.Log.TotalBytes,
	})
}

// handleSnapshot streams the index's self-describing snapshot container
// as the response body — `curl -X POST …/admin/snapshot -o idx.snap`
// captures a file that `setcontaind -snapshot idx.snap` (or
// setcontain.Open) restores without the original dataset. The admin
// lock keeps mutations out while the pages stream; queries keep being
// served.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "serve: POST only", http.StatusMethodNotAllowed)
		return
	}
	// Serialize into memory under the lock, then stream with the lock
	// released: the mutation endpoints are blocked only for local
	// encoding time, never for a slow client's download. (The sharded
	// container already buffers per-shard payloads, so this adds no new
	// peak for the largest configurations.) With a WAL attached the
	// serialization routes through Durable.Snapshot, whose mutex also
	// excludes the background checkpointer's concurrent Save.
	s.admin.Lock()
	var snap bytes.Buffer
	var err error
	if s.durable != nil {
		err = s.durable.Snapshot(&snap)
	} else {
		err = s.idx.Save(&snap)
	}
	s.admin.Unlock()
	if err != nil {
		http.Error(w, fmt.Sprintf("serve: snapshot: %v", err), http.StatusInternalServerError)
		s.snapshotsFailed.Add(1)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", "attachment; filename=index.snap")
	w.Header().Set("Content-Length", fmt.Sprint(snap.Len()))
	if _, err := snap.WriteTo(w); err != nil {
		// Headers are gone; the short body fails the client's length and
		// CRC checks, which is the detection path snapshots are built
		// around.
		s.snapshotsFailed.Add(1)
		return
	}
	s.snapshotsServed.Add(1)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
