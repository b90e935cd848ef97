package setcontain

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/wire"
)

// The remote shard client is an ordinary client of the daemon's public
// HTTP API (setcontain/serve); the bodies are declared once, in
// internal/wire, for both ends:
//
//	Info               GET  /healthz         -> wire.HealthResponse
//	AppendQuery/Expr   POST /query           one {"expr","limit"} spec
//	                                         -> NDJSON wire.Result lines
//	Insert             POST /admin/insert    one set -> its shard-local id
//	Delete             POST /admin/delete    one shard-local id
//	MergeDelta         POST /admin/merge
//	Snapshot           POST /admin/snapshot  -> binary snapshot container
//	ItemSupports       GET  /shard/supports  -> wire.ShardSupportsResponse
//
// Only the last is shard-specific: a coordinator's planner needs the
// exact per-item support table, which no client-facing answer carries.
// Queries travel in the setcontain.ParseExpr grammar (Query.String and
// Expr.String render it), so the daemon's parser is the single wire
// authority, and answers stream back as ascending shard-local ids.
// Cancellation is end-to-end: aborting the request closes the HTTP
// stream, which cancels the daemon's request context, which interrupts
// the shard's evaluation between list-block reads.

// interruptPollInterval is how often an in-flight remote call polls the
// session's interrupt hook. The hook is a poll-style func (the Store's
// reusable context check), so a watchdog converts it into request
// cancellation; fast queries finish before the first tick.
const interruptPollInterval = 2 * time.Millisecond

// NewRemoteShard returns a ShardClient for the shard daemon at baseURL
// (e.g. "http://127.0.0.1:7411"). hc is the HTTP client to use; nil
// selects a dedicated client with no overall timeout — per-call
// deadlines come from the caller's contexts, and streaming queries may
// legitimately run long.
func NewRemoteShard(baseURL string, hc *http.Client) ShardClient {
	if hc == nil {
		hc = &http.Client{}
	}
	return &remoteClient{base: strings.TrimRight(baseURL, "/"), hc: hc}
}

// ConnectShards dials one remote shard daemon per URL (in shard order,
// matching the partition the daemons hold) and assembles them into a
// coordinator Index; see ShardedOverClients for the validation applied.
func ConnectShards(ctx context.Context, urls []string) (*Index, error) {
	clients := make([]ShardClient, len(urls))
	for i, u := range urls {
		clients[i] = NewRemoteShard(u, nil)
	}
	return ShardedOverClients(ctx, clients)
}

type remoteClient struct {
	base string
	hc   *http.Client
}

func (c *remoteClient) Info(ctx context.Context) (ShardInfo, error) {
	var w wire.HealthResponse
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &w); err != nil {
		return ShardInfo{}, err
	}
	kind, err := ParseKind(w.Kind)
	if err != nil {
		return ShardInfo{}, c.attribute(err)
	}
	return ShardInfo{
		Kind:    kind,
		Records: w.Records,
		Domain:  w.Domain,
		Pending: w.Pending,
		Deleted: w.Deleted,
	}, nil
}

// Session opens a data-plane session. The protocol is stateless per
// call, so sessions carry only the interrupt hook; cachePages is the
// daemon's concern and is ignored here.
func (c *remoteClient) Session(int) (ShardSession, error) {
	return &remoteSession{c: c}, nil
}

func (c *remoteClient) ItemSupports(ctx context.Context) ([]int64, error) {
	var w wire.ShardSupportsResponse
	if err := c.do(ctx, http.MethodGet, "/shard/supports", nil, &w); err != nil {
		return nil, err
	}
	if len(w.Supports) != w.Domain {
		return nil, c.attribute(fmt.Errorf("supports table has %d entries, domain is %d", len(w.Supports), w.Domain))
	}
	return w.Supports, nil
}

func (c *remoteClient) Insert(ctx context.Context, set []Item) (uint32, error) {
	var w wire.InsertResponse
	if err := c.do(ctx, http.MethodPost, "/admin/insert", wire.InsertRequest{Sets: [][]Item{set}}, &w); err != nil {
		return 0, err
	}
	if len(w.IDs) != 1 {
		return 0, c.attribute(fmt.Errorf("insert of one set answered %d ids", len(w.IDs)))
	}
	return w.IDs[0], nil
}

func (c *remoteClient) Delete(ctx context.Context, local uint32) error {
	return c.do(ctx, http.MethodPost, "/admin/delete", wire.DeleteRequest{IDs: []uint32{local}}, io.Discard)
}

func (c *remoteClient) MergeDelta(ctx context.Context) error {
	return c.do(ctx, http.MethodPost, "/admin/merge", nil, io.Discard)
}

func (c *remoteClient) Snapshot(ctx context.Context, w io.Writer) error {
	return c.do(ctx, http.MethodPost, "/admin/snapshot", nil, w)
}

func (c *remoteClient) Close() error {
	c.hc.CloseIdleConnections()
	return nil
}

// attribute names the shard in err, whatever failed on the way to it.
func (c *remoteClient) attribute(err error) error {
	return fmt.Errorf("setcontain: shard %s: %w", c.base, err)
}

// send is the one request builder: in (nil for an empty body) goes out
// as the JSON request, and a non-200 answer comes back as the shard's
// own message — the JSON {"error": …} body where the daemon wrote one,
// the plain-text body otherwise. The caller closes the response body.
func (c *remoteClient) send(ctx context.Context, method, path string, in any) (*http.Response, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusOK {
		return resp, nil
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096)) // best effort: the status alone still reports
	msg := strings.TrimSpace(string(b))
	var je wire.QueryErrorResponse // every JSON error body carries "error"
	if json.Unmarshal(b, &je) == nil && je.Error != "" {
		msg = je.Error
	}
	if msg == "" {
		msg = resp.Status
	}
	return nil, fmt.Errorf("%s (HTTP %d)", msg, resp.StatusCode)
}

// do runs one control-plane round-trip through send. out receives the
// 200 body: an io.Writer the raw bytes, anything else the decoded JSON.
func (c *remoteClient) do(ctx context.Context, method, path string, in, out any) error {
	resp, err := c.send(ctx, method, path, in)
	if err != nil {
		return c.attribute(err)
	}
	defer resp.Body.Close()
	if w, raw := out.(io.Writer); raw {
		_, err = io.Copy(w, resp.Body)
	} else {
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	if err != nil {
		return c.attribute(err)
	}
	return nil
}

// remoteSession is the data plane: one streaming query at a time, with
// the Store's interrupt hook converted into HTTP request cancellation
// by a per-call watchdog.
type remoteSession struct {
	c *remoteClient

	mu        sync.Mutex
	interrupt func() error
}

func (s *remoteSession) SetInterrupt(fn func() error) {
	s.mu.Lock()
	s.interrupt = fn
	s.mu.Unlock()
}

// check consults the installed interrupt hook, if any.
func (s *remoteSession) check() error {
	s.mu.Lock()
	fn := s.interrupt
	s.mu.Unlock()
	if fn == nil {
		return nil
	}
	return fn()
}

func (s *remoteSession) AppendQuery(ctx context.Context, dst []uint32, q Query) ([]uint32, error) {
	if !q.Pred.known() {
		return nil, ErrUnknownPredicate
	}
	return s.appendWire(ctx, dst, wire.QuerySpec{Expr: q.String()})
}

// AppendExpr validates before touching the wire, so both transports
// return the same sentinels (see inprocSession.AppendExpr).
func (s *remoteSession) AppendExpr(ctx context.Context, dst []uint32, expr *Expr, limit int) ([]uint32, error) {
	if expr == nil {
		return nil, errNilExpr
	}
	if limit < 0 {
		return nil, ErrNegativeLimit
	}
	return s.appendWire(ctx, dst, wire.QuerySpec{Expr: expr.String(), Limit: limit})
}

// appendWire posts one query spec and appends the streamed answer to
// dst.
func (s *remoteSession) appendWire(ctx context.Context, dst []uint32, spec wire.QuerySpec) ([]uint32, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cctx, stop := s.watch(ctx)
	defer stop()
	resp, err := s.c.send(cctx, http.MethodPost, "/query", wire.QueryRequest{Queries: []wire.QuerySpec{spec}})
	if err != nil {
		return nil, s.failure(ctx, err)
	}
	defer resp.Body.Close()
	ids, err := readAnswer(dst, resp.Body, s.check)
	if err != nil {
		return nil, s.failure(ctx, err)
	}
	return ids, nil
}

// readAnswer appends the NDJSON answer of a one-query request to dst,
// consulting check between lines. It returns the complete answer or an
// error, never a prefix: the stream must reach a final line whose count
// matches what was received (a daemon that died mid-answer fails the
// call), every line must belong to query 0 (the only one sent), and an
// error line — how the daemon reports a query that failed executing —
// fails the call with the daemon's message.
func readAnswer(dst []uint32, body io.Reader, check func() error) ([]uint32, error) {
	dec := json.NewDecoder(body)
	base := len(dst)
	for {
		var line wire.Result
		if err := dec.Decode(&line); err != nil {
			if errors.Is(err, io.EOF) {
				return nil, errors.New("answer stream ended before its final line")
			}
			return nil, err
		}
		if line.Query != 0 {
			return nil, fmt.Errorf("answer line for query %d of a one-query request", line.Query)
		}
		if line.Error != "" {
			return nil, errors.New(line.Error)
		}
		dst = append(dst, line.IDs...)
		if line.Done {
			if got := len(dst) - base; got != line.Count {
				return nil, fmt.Errorf("answer carries %d ids, final line says %d", got, line.Count)
			}
			return dst, nil
		}
		if err := check(); err != nil {
			return nil, err
		}
	}
}

// failure maps a failed call to what the caller should see: the
// interrupt hook's error (the Store ctx that tripped the watchdog), the
// caller's own ctx error, then the failure itself, naming the shard.
func (s *remoteSession) failure(ctx context.Context, err error) error {
	if herr := s.check(); herr != nil {
		return herr
	}
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return s.c.attribute(err)
}

// watch converts the poll-style interrupt hook into context
// cancellation for the duration of one call: a goroutine polls the hook
// and cancels the derived context when it trips, which closes the HTTP
// stream and propagates the cancellation to the daemon. Without a hook
// installed the caller's ctx is returned untouched and no goroutine
// starts.
func (s *remoteSession) watch(ctx context.Context) (context.Context, func()) {
	s.mu.Lock()
	hooked := s.interrupt != nil
	s.mu.Unlock()
	if !hooked {
		return ctx, func() {}
	}
	cctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		ticker := time.NewTicker(interruptPollInterval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-cctx.Done():
				return
			case <-ticker.C:
				if s.check() != nil {
					cancel()
					return
				}
			}
		}
	}()
	var once sync.Once
	// stop waits for the watchdog to exit: the hook closure reads state
	// the caller (the Store's reader lifecycle) mutates right after the
	// call returns, so a merely-signaled watchdog could still be mid-poll.
	return cctx, func() {
		once.Do(func() {
			close(done)
			cancel()
			<-stopped
		})
	}
}

func (s *remoteSession) Stats() CacheStats { return CacheStats{} }
func (s *remoteSession) ResetStats()       {}
func (s *remoteSession) Close() error      { return nil }
