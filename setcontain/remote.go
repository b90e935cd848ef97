package setcontain

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/wire"
)

// The remote shard client is an ordinary client of the daemon's public
// HTTP API (setcontain/serve); the bodies are declared once, in
// internal/wire, for both ends:
//
//	Info               GET  /healthz         -> wire.HealthResponse
//	AppendExpr         POST /query           one {"expr","limit"} spec
//	                                         -> NDJSON wire.Result lines
//	Insert             POST /admin/insert    one set -> its shard-local id
//	Delete             POST /admin/delete    one shard-local id
//	MergeDelta         POST /admin/merge
//	Snapshot           POST /admin/snapshot  -> binary snapshot container
//
// None of it is shard-specific: the daemon plans every request against
// its own supports, so no planner state crosses the wire. Queries
// travel in the setcontain.ParseExpr grammar (Query.String and
// Expr.String render it), so the daemon's parser is the single wire
// authority, and answers stream back as ascending shard-local ids.
// Cancellation is the call's ctx, end to end: when it ends net/http
// aborts the request, which closes the stream, which cancels the
// daemon's request context, which interrupts the shard's evaluation
// between list-block reads.

// shardDialTimeout bounds connecting to a shard daemon through the
// default client: a black-holed shard fails the call at the dial, not
// at the caller's context (which may have no deadline at all).
const shardDialTimeout = 5 * time.Second

// NewRemoteShard returns a ShardClient for the shard daemon at baseURL
// (e.g. "http://127.0.0.1:7411"). hc is the HTTP client to use; nil
// selects a dedicated client that gives up on a connection attempt
// after shardDialTimeout and has no other timeout — per-call deadlines
// come from the caller's contexts, and streaming queries may
// legitimately run long.
func NewRemoteShard(baseURL string, hc *http.Client) ShardClient {
	if hc == nil {
		hc = &http.Client{Transport: &http.Transport{
			Proxy:           http.ProxyFromEnvironment,
			DialContext:     (&net.Dialer{Timeout: shardDialTimeout, KeepAlive: 30 * time.Second}).DialContext,
			IdleConnTimeout: 90 * time.Second,
		}}
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
// call, so a session carries nothing but its client; cachePages is the
// daemon's concern and is ignored here.
func (c *remoteClient) Session(int) (ShardSession, error) {
	return &remoteSession{c: c}, nil
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

// remoteSession is the data plane: one streaming query at a time, each
// an HTTP request under the call's ctx.
type remoteSession struct {
	c *remoteClient
}

func (s *remoteSession) AppendQuery(ctx context.Context, dst []uint32, q Query) ([]uint32, error) {
	return s.AppendExpr(ctx, dst, ExprOf(q), 0)
}

// AppendExpr posts one query spec and appends the streamed answer to
// dst. It validates before touching the wire, so both transports
// return the same errors (see inprocSession.AppendExpr). A failure is
// the caller's own ctx error when that is what ended the call, else the
// failure itself, naming the shard.
func (s *remoteSession) AppendExpr(ctx context.Context, dst []uint32, expr *Expr, limit int) ([]uint32, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if expr == nil {
		return nil, errNilExpr
	}
	if limit < 0 {
		return nil, ErrNegativeLimit
	}
	if err := expr.validate(); err != nil {
		return nil, err
	}
	spec := wire.QuerySpec{Expr: expr.String(), Limit: limit}
	resp, err := s.c.send(ctx, http.MethodPost, "/query", wire.QueryRequest{Queries: []wire.QuerySpec{spec}})
	if err == nil {
		defer resp.Body.Close()
		dst, err = readAnswer(dst, resp.Body)
	}
	if err == nil {
		return dst, nil
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return nil, s.c.attribute(err)
}

// readAnswer appends the NDJSON answer of a one-query request to dst.
// It returns the complete answer or an error, never a prefix: the
// stream must reach a final line whose count matches what was received
// (a daemon that died mid-answer fails the call), every line must be
// one wire.Result of at most wire.MaxLineBytes bytes belonging to query 0
// (the only one sent), and an error line — how the daemon reports a
// query that failed executing — fails the call with the daemon's
// message. The ids must keep the ShardSession contract, ascending from
// 1 across lines: the k-way merge trusts it, so a local id 0 or an id
// not above the one before it fails the call. A ctx that ends
// mid-answer fails the body's next read. Each line's ids go straight
// onto dst (wire.DecodeResult); ids appended before a failure are
// dropped with the rest of the answer.
func readAnswer(dst []uint32, body io.Reader) ([]uint32, error) {
	lines := bufio.NewScanner(body)
	lines.Buffer(nil, wire.MaxLineBytes+1) // the scanner's limit counts the newline
	base := len(dst)
	var last uint32 // the previous id; 0 before the first, and never an id
	for lines.Scan() {
		line, out, err := wire.DecodeResult(lines.Bytes(), dst)
		if err != nil {
			return nil, err
		}
		if line.Query != 0 {
			return nil, fmt.Errorf("answer line for query %d of a one-query request", line.Query)
		}
		if line.Error != "" {
			return nil, errors.New(line.Error)
		}
		for _, id := range out[len(dst):] {
			if id <= last {
				return nil, fmt.Errorf("answer id %d follows %d: ids must ascend from 1", id, last)
			}
			last = id
		}
		dst = out
		if line.Done {
			if got := len(dst) - base; got != line.Count {
				return nil, fmt.Errorf("answer carries %d ids, final line says %d", got, line.Count)
			}
			return dst, nil
		}
	}
	if err := lines.Err(); errors.Is(err, bufio.ErrTooLong) {
		return nil, fmt.Errorf("answer line exceeds %d bytes", wire.MaxLineBytes)
	} else if err != nil {
		return nil, err
	}
	return nil, errors.New("answer stream ended before its final line")
}

func (s *remoteSession) Stats() CacheStats { return CacheStats{} }
func (s *remoteSession) ResetStats()       {}
func (s *remoteSession) Close() error      { return nil }
