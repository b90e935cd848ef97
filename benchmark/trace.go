package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wal"
	"repro/setcontain"
)

// The traced run records spans from outside the program, around calls
// into each layer's public functions: the rung ladder (trace spans named
// rung.*), an http.Handler middleware around Server.Handler(), a
// decorating ShardClient/ShardSession, and a decorating wal.FS. The
// traced run has exactly one request in flight, so "the current request"
// and "the current coordinator handler span" are single values, not
// context plumbing the program under test would have to carry.

// span is one timed interval at a layer boundary.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Bytes is what crossed the boundary during the span, where the seam
	// can count it: request plus response body bytes of an HTTP exchange.
	Bytes int64 `json:"bytes,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	req    atomic.Int64 // request (op index) in flight
	scope  atomic.Int64 // span that spans opened without an explicit parent nest under

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// open reserves an id and notes the start; close records the span.
func (t *tracer) open() (id, start int64) { return t.nextID.Add(1), t.now() }

func (t *tracer) close(id, parent int64, name string, start, bytes int64) {
	t.record(span{ID: id, Parent: parent, Name: name, Start: start, End: t.now(), Bytes: bytes})
}

// add records a finished span from wall-clock times.
func (t *tracer) add(name string, parent, bytes int64, start, end time.Time) {
	t.addID(t.nextID.Add(1), name, parent, bytes, start, end)
}

// addID is add for a span whose id was reserved before it began (so that
// children could already name it).
func (t *tracer) addID(id int64, name string, parent, bytes int64, start, end time.Time) {
	t.record(span{ID: id, Parent: parent, Name: name, Bytes: bytes,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

func (t *tracer) record(s span) {
	s.Req = t.req.Load()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// ofReq returns the spans recorded so far for the request in flight.
// Requests are traced one at a time, so they are a suffix of the slice.
func (t *tracer) ofReq(req int64) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	i := len(t.spans)
	for i > 0 && t.spans[i-1].Req == req {
		i--
	}
	return append([]span(nil), t.spans[i:]...)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover (overlapping children are
// counted once; a child is clipped to its parent).
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return ks[a].Start < ks[b].Start })
		covered, upto := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, upto), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// --- seam 2: http.Handler middleware ----------------------------------------

// countingWriter counts the response bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// middleware wraps a server's handler in a span named name whose parent
// is the span id the caller sent in the header. With asScope set the
// span becomes the scope that shard-client spans nest under (the
// coordinator).
func (t *tracer) middleware(name string, asScope bool, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		id, start := t.open()
		if asScope {
			t.scope.Store(id)
		}
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		t.close(id, parent, name, start, cw.n+max(r.ContentLength, 0))
	})
}

// --- seam 3: decorating ShardClient / ShardSession --------------------------

// spanTransport stamps outgoing shard requests with the id of the shard
// call span in flight, so the shard daemon's middleware can name it as
// parent, and counts the body bytes both ways.
type spanTransport struct {
	base  http.RoundTripper
	cur   *atomic.Int64
	bytes *atomic.Int64
}

func (st spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id := st.cur.Load(); id != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	st.bytes.Add(max(r.ContentLength, 0))
	resp, err := st.base.RoundTrip(r)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: st.bytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// tracedShard decorates a ShardClient so that every data-plane call on
// its sessions is a span (child of the coordinator's handler span).
type tracedShard struct {
	setcontain.ShardClient
	t     *tracer
	name  string
	cur   *atomic.Int64 // span id of the call in flight
	bytes *atomic.Int64 // body bytes exchanged with the shard so far
}

// newTracedShard dials the shard daemon at url through the decorator.
func newTracedShard(t *tracer, name, url string) setcontain.ShardClient {
	c := &tracedShard{t: t, name: name, cur: new(atomic.Int64), bytes: new(atomic.Int64)}
	hc := &http.Client{Transport: spanTransport{base: http.DefaultTransport, cur: c.cur, bytes: c.bytes}}
	c.ShardClient = setcontain.NewRemoteShard(url, hc)
	return c
}

func (c *tracedShard) Session(cachePages int) (setcontain.ShardSession, error) {
	s, err := c.ShardClient.Session(cachePages)
	if err != nil {
		return nil, err
	}
	return &tracedSession{ShardSession: s, c: c}, nil
}

type tracedSession struct {
	setcontain.ShardSession
	c *tracedShard
}

func (s *tracedSession) call(f func() ([]uint32, error)) ([]uint32, error) {
	id, start := s.c.t.open()
	s.c.cur.Store(id)
	before := s.c.bytes.Load()
	ids, err := f()
	s.c.cur.Store(0)
	s.c.t.close(id, s.c.t.scope.Load(), s.c.name, start, s.c.bytes.Load()-before)
	return ids, err
}

func (s *tracedSession) AppendQuery(ctx context.Context, dst []uint32, q setcontain.Query) ([]uint32, error) {
	return s.call(func() ([]uint32, error) { return s.ShardSession.AppendQuery(ctx, dst, q) })
}

func (s *tracedSession) AppendExpr(ctx context.Context, dst []uint32, e *setcontain.Expr, limit int) ([]uint32, error) {
	return s.call(func() ([]uint32, error) { return s.ShardSession.AppendExpr(ctx, dst, e, limit) })
}

// --- seam 4: decorating wal.FS ----------------------------------------------

// tracedFS times the writes and fsyncs of every file the log and the
// checkpoint manager create.
type tracedFS struct {
	wal.FS
	t *tracer
}

func (fs tracedFS) Create(path string) (wal.File, error) {
	f, err := fs.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, t: fs.t}, nil
}

type tracedFile struct {
	wal.File
	t *tracer
}

func (f *tracedFile) Write(p []byte) (int, error) {
	id, start := f.t.open()
	n, err := f.File.Write(p)
	f.t.close(id, f.t.scope.Load(), "wal.fs.write", start, int64(n))
	return n, err
}

func (f *tracedFile) Sync() error {
	id, start := f.t.open()
	err := f.File.Sync()
	f.t.close(id, f.t.scope.Load(), "wal.fs.sync", start, 0)
	return err
}
