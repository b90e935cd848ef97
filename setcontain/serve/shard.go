package serve

import "net/http"

// A coordinator (setcontain.NewRemoteShard) is an ordinary client of
// this daemon: it reads a shard's identity from /healthz, queries it
// through POST /query (one spec per call, so coordinator fan-in traffic
// batches and saturates exactly like client traffic), and mutates and
// snapshots it through /admin/* (and therefore the WAL, when one is
// attached). The one thing it needs that a client does not is the exact
// per-item support table its planner sums across shards — exact because
// itemset-frequency sketches cannot be both small and accurate — so
// GET /shard/supports is the only shard-specific route.

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
