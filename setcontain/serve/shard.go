package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/setcontain"
)

// The /shard/* handler group is the daemon side of the shard wire
// protocol spoken by setcontain.NewRemoteShard: a compact HTTP/NDJSON
// surface a coordinator uses to treat this process as one shard of a
// sharded engine. The group reuses the server's existing machinery —
// queries are admitted through the batcher (so coordinator fan-in
// traffic batches and saturates exactly like client traffic), and
// mutations go through the same Mutator path (and therefore the WAL,
// when one is attached). /shard/merge and /shard/snapshot are aliases
// of their /admin twins; the rest are shard-shaped:
//
//	GET  /shard/info      identity: kind, records, domain, pending, deleted
//	GET  /shard/supports  full per-item support table (coordinator planning)
//	POST /shard/query     {"q","limit"} -> NDJSON Result lines
//	POST /shard/insert    {"set"} -> {"id"} (shard-local id)
//	POST /shard/delete    {"id"} -> {"deleted"}
//
// setcontain/remote.go keeps unexported mirrors of these body types;
// the JSON tags here are the protocol.

// ShardInfoResponse is the GET /shard/info body.
type ShardInfoResponse struct {
	Kind    string `json:"kind"`
	Records int    `json:"records"`
	Domain  int    `json:"domain"`
	Pending int    `json:"pending_inserts"`
	Deleted int    `json:"deleted"`
}

// ShardSupportsResponse is the GET /shard/supports body: the shard's
// per-item support table, Supports[i] counting the live records that
// contain item i+1.
type ShardSupportsResponse struct {
	Domain   int     `json:"domain"`
	Supports []int64 `json:"supports"`
}

// ShardQueryRequest is the POST /shard/query body: one query in the
// setcontain.ParseExpr grammar plus an answer limit (0 = unlimited).
type ShardQueryRequest struct {
	Q     string `json:"q"`
	Limit int    `json:"limit"`
}

// ShardInsertRequest is the POST /shard/insert body: one record's item
// set, inserted into this shard's local id space.
type ShardInsertRequest struct {
	Set []setcontain.Item `json:"set"`
}

// ShardInsertResponse reports the shard-local id the insert received.
type ShardInsertResponse struct {
	ID uint32 `json:"id"`
}

// ShardDeleteRequest is the POST /shard/delete body: one shard-local id
// to tombstone.
type ShardDeleteRequest struct {
	ID uint32 `json:"id"`
}

// ShardDeleteResponse acknowledges a shard delete.
type ShardDeleteResponse struct {
	Deleted int `json:"deleted"`
}

// handleShardInfo reports the shard's identity — what a coordinator
// validates before assembling shards into an index.
func (s *Server) handleShardInfo(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "serve: GET only", http.StatusMethodNotAllowed)
		return
	}
	s.admin.RLock()
	defer s.admin.RUnlock()
	writeJSON(w, ShardInfoResponse{
		Kind:    s.idx.Kind().String(),
		Records: s.idx.NumRecords(),
		Domain:  s.idx.Engine().DomainSize(),
		Pending: s.idx.PendingInserts(),
		Deleted: s.idx.Deleted(),
	})
}

// handleShardSupports streams the full support table. The coordinator
// sums these across shards to plan expressions globally; the table
// reads mutable engine state, hence the admin read lock.
func (s *Server) handleShardSupports(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "serve: GET only", http.StatusMethodNotAllowed)
		return
	}
	s.admin.RLock()
	sup := s.idx.Engine().ItemSupports()
	domain := s.idx.Engine().DomainSize()
	s.admin.RUnlock()
	if sup == nil {
		sup = make([]int64, domain)
	}
	writeJSON(w, ShardSupportsResponse{Domain: domain, Supports: sup})
}

// handleShardQuery answers one textual query as NDJSON Result lines —
// the single-query analogue of handleQuery, admitted through the same
// batcher so coordinator traffic shares admission control and batch
// amortization with direct client traffic.
func (s *Server) handleShardQuery(w http.ResponseWriter, r *http.Request) {
	var req ShardQueryRequest
	if !decodeAdminBody(w, r, &req) {
		return
	}
	if req.Limit < 0 {
		writeQueryError(w, setcontain.ErrNegativeLimit, http.StatusBadRequest)
		return
	}
	expr, err := setcontain.ParseExpr(req.Q)
	if err != nil {
		writeQueryError(w, err, http.StatusBadRequest)
		return
	}
	ctx := r.Context()
	out, err := s.batcher.DoExprLimit(ctx, s.getBuf(), expr, req.Limit)
	switch {
	case err == nil:
		w.Header().Set("Content-Type", "application/x-ndjson")
		werr := s.writeIDs(ctx, json.NewEncoder(w), nil, 0, out)
		s.putBuf(out)
		_ = werr // client gone mid-answer; nothing more to do
	case errors.Is(err, ErrSaturated):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		s.putBuf(out)
	case ctx.Err() != nil:
		// Client disconnected; the buffer may still be owned by a live
		// dispatcher — forfeited per DoExprLimit's contract.
	default:
		writeQueryError(w, err, http.StatusInternalServerError)
		if out != nil {
			s.putBuf(out)
		}
	}
}

// handleShardInsert inserts one record and reports its shard-local id,
// through the same mutation path (and WAL, when attached) as
// /admin/insert.
func (s *Server) handleShardInsert(w http.ResponseWriter, r *http.Request) {
	var req ShardInsertRequest
	if !decodeAdminBody(w, r, &req) {
		return
	}
	s.admin.Lock()
	defer s.admin.Unlock()
	ids, err := s.mut.InsertSets([][]setcontain.Item{req.Set})
	if err != nil {
		http.Error(w, fmt.Sprintf("serve: %v", err), mutationStatus(err))
		return
	}
	writeJSON(w, ShardInsertResponse{ID: ids[0]})
}

// handleShardDelete tombstones one shard-local id.
func (s *Server) handleShardDelete(w http.ResponseWriter, r *http.Request) {
	var req ShardDeleteRequest
	if !decodeAdminBody(w, r, &req) {
		return
	}
	s.admin.Lock()
	defer s.admin.Unlock()
	if err := s.mut.DeleteIDs([]uint32{req.ID}); err != nil {
		http.Error(w, fmt.Sprintf("serve: %v", err), mutationStatus(err))
		return
	}
	writeJSON(w, ShardDeleteResponse{Deleted: 1})
}
