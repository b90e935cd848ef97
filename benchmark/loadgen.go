package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/setcontain"
	"repro/setcontain/serve"
)

// executor issues one op to the system under test on behalf of one
// closed-loop client and returns the answer appended to dst.
type executor interface {
	exec(o *op, dst []uint32) ([]uint32, error)
}

// storeExec calls the library rung: Store.ExecAppend and its expression
// twins, exactly as an application linked against the package would.
type storeExec struct {
	store *setcontain.Store
}

func (e storeExec) exec(o *op, dst []uint32) ([]uint32, error) {
	ctx := context.Background()
	switch o.class {
	case classQuery:
		return e.store.ExecAppend(ctx, dst, o.q)
	case classExpr:
		return e.store.ExecExprAppend(ctx, dst, o.expr)
	default:
		return e.store.ExecExprLimitAppend(ctx, dst, o.expr, o.limit)
	}
}

// httpExec sends one op per POST /query over a keep-alive connection and
// reads and decodes the whole NDJSON answer. The time spent encoding the
// request and decoding the response (both inside the client-observed
// latency) and the response size of the last call are kept for the
// traced run; span, when non-zero, travels in a header so the handler
// middleware can name its parent.
type httpExec struct {
	hc   *http.Client
	url  string
	body bytes.Buffer
	resp bytes.Buffer

	span      int64
	enc, dec  time.Duration
	respBytes int
}

const spanHeader = "X-Bench-Span"

func (e *httpExec) exec(o *op, dst []uint32) ([]uint32, error) {
	t0 := time.Now()
	e.body.Reset()
	if err := json.NewEncoder(&e.body).Encode(serve.QueryRequest{Queries: []serve.QuerySpec{o.spec}}); err != nil {
		return nil, err
	}
	e.enc = time.Since(t0)
	req, err := http.NewRequest(http.MethodPost, e.url+"/query", bytes.NewReader(e.body.Bytes()))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if e.span != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(e.span, 10))
	}
	resp, err := e.hc.Do(req)
	if err != nil {
		return nil, err
	}
	e.resp.Reset()
	_, rerr := e.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		return nil, rerr
	}
	e.respBytes = e.resp.Len()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST /query: status %d: %s", resp.StatusCode, bytes.TrimSpace(e.resp.Bytes()))
	}
	t1 := time.Now()
	dec := json.NewDecoder(&e.resp)
	done := false
	for {
		var r serve.Result
		if err := dec.Decode(&r); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding answer: %w", err)
		}
		if r.Error != "" {
			return nil, errors.New(r.Error)
		}
		dst = append(dst, r.IDs...)
		if r.Done {
			done = true
			if r.Count != len(dst) {
				return nil, fmt.Errorf("answer carries %d ids, final line counts %d", len(dst), r.Count)
			}
		}
	}
	e.dec = time.Since(t1)
	if !done {
		return nil, errors.New("answer ended without a final line")
	}
	return dst, nil
}

// clientLog is what one client observed.
type clientLog struct {
	samples   []sample
	attempted int
	failed    int
	firstErr  string
}

func (l *clientLog) fail(format string, args ...any) {
	l.failed++
	if l.firstErr == "" {
		l.firstErr = fmt.Sprintf(format, args...)
	}
}

// done records one attempted op: a latency sample when it succeeded and
// its answer matched the oracle, a failure otherwise.
func (l *clientLog) done(o *op, class uint8, got []uint32, err error, start, t0, t1 time.Time) {
	l.attempted++
	switch {
	case err != nil:
		l.fail("%s: %v", o.text(), err)
	case !slices.Equal(got, o.want):
		l.fail("%s: got %d ids, oracle has %d (or they differ)", o.text(), len(got), len(o.want))
	default:
		l.samples = append(l.samples, sample{end: int64(t1.Sub(start)), lat: int64(t1.Sub(t0)), op: o.idx, class: class})
	}
}

// clientFunc is one closed-loop client: it issues operations back to back
// until the deadline, logging each.
type clientFunc func(log *clientLog, start, deadline time.Time)

// replayClient replays ops round-robin from offset: the next request goes
// out only when the previous reply has been read and checked.
func replayClient(ex executor, ops []*op, offset int) clientFunc {
	return func(log *clientLog, start, deadline time.Time) {
		var dst []uint32
		for i := offset; ; i++ {
			o := ops[i%len(ops)]
			t0 := time.Now()
			if !t0.Before(deadline) {
				return
			}
			got, err := ex.exec(o, dst[:0])
			t1 := time.Now()
			log.done(o, o.class, got, err, start, t0, t1)
			if got != nil {
				dst = got
			}
		}
	}
}

// runWindow runs the clients concurrently for dur and returns their logs.
func runWindow(dur time.Duration, clients []clientFunc) []*clientLog {
	logs := make([]*clientLog, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for i, c := range clients {
		logs[i] = &clientLog{samples: make([]sample, 0, 1<<16)}
		wg.Add(1)
		go func(c clientFunc, log *clientLog) {
			defer wg.Done()
			c(log, start, deadline)
		}(c, logs[i])
	}
	wg.Wait()
	return logs
}

// replayOnce sends each op once, split across the executors, checking
// every answer: the warm-up pass, and the smallest complete run of a
// pool. It returns the merged log.
func replayOnce(execs []executor, ops []*op) *clientLog {
	logs := make([]*clientLog, len(execs))
	var wg sync.WaitGroup
	start := time.Now()
	for c, ex := range execs {
		logs[c] = &clientLog{}
		wg.Add(1)
		go func(c int, ex executor) {
			defer wg.Done()
			var dst []uint32
			for i := c; i < len(ops); i += len(execs) {
				t0 := time.Now()
				got, err := ex.exec(ops[i], dst[:0])
				logs[c].done(ops[i], ops[i].class, got, err, start, t0, time.Now())
				if got != nil {
					dst = got
				}
			}
		}(c, ex)
	}
	wg.Wait()
	return mergeLogs(logs)
}

func mergeLogs(logs []*clientLog) *clientLog {
	out := &clientLog{}
	for c, l := range logs {
		for i := range l.samples {
			l.samples[i].client = uint8(c)
		}
		out.samples = append(out.samples, l.samples...)
		out.attempted += l.attempted
		out.failed += l.failed
		if out.firstErr == "" {
			out.firstErr = l.firstErr
		}
	}
	return out
}
