// Package serve turns a setcontain.Store into a long-lived HTTP/JSON
// query service — the serving layer behind cmd/setcontaind.
//
// Every query executes on its request's own goroutine, through
// Store.ExecExprLimitAppend on one pooled, warm Store reader. In front
// of the Store sits the Batcher, an admission bound: at most
// Config.Dispatchers queries execute at once and at most
// Config.MaxPending more wait for a slot. Nothing is shared across
// queries; like the paper's evaluation, each is answered, and costs
// its pages, on its own.
//
// A Server wraps the batcher with HTTP handlers:
//
//	POST /query    — up to 1 024 queries in, NDJSON answer chunks out
//	GET  /query    — single query via ?q=subset{3 17} (setcontain.ParseExpr)
//	GET  /stream   — GET /query with a flush after every chunk
//	GET  /stats    — admission counters, store cache counters, shard and
//	                 expression-planner accounting
//	GET  /healthz  — liveness plus index identity and mutation state
//
// Queries on the wire are boolean expressions in the textual
// setcontain.ParseExpr grammar — GET ?q= accepts the full form
// (`?q=subset{1 2} and not superset{3}`, URL-encoded), and a POST spec
// carries either the structured {"pred","items"} pair or the same text
// under {"expr"}. Every query, whatever its shape or endpoint, is
// submitted through Batcher.DoExprLimit; a POST's queries are admitted
// one after another. In the Store a plain predicate — the one-leaf
// expression with no limit — runs straight on the pooled reader;
// everything else goes through the store's cost-based planner, which
// orders AND legs rarest-first and short-circuits the rest when an
// intermediate empties; /stats reports that accounting under
// "planner". A query string that fails to parse, and a POST carrying
// more than 1 024 queries, answer 400 with a JSON body carrying the
// error (and, for a parse error, the byte offset of the failing token)
// before any query runs.
//
// The /admin endpoints mutate the live collection (serialized by an
// internal lock; queries keep flowing on the store's pooled readers):
//
//	POST /admin/insert   — add record sets to the delta, returns their ids
//	POST /admin/delete   — tombstone record ids (masked immediately)
//	POST /admin/merge    — fold delta + tombstones into the disk structures
//	POST /admin/snapshot — stream a restorable snapshot container
//
// A failed mutation answers 400 when the request itself was at fault
// (bad set, unknown id) and 503 when the write-ahead log wedged — told
// apart by classifying the returned error (wal.ErrWedged), never by
// sampling global state a concurrent request may have changed. A
// mid-batch insert failure answers with InsertErrorResponse: the
// error, the ids acknowledged before the failing set (with a WAL those
// inserts are already durable), and the index of the first
// unacknowledged set.
//
// A coordinator (setcontain.ConnectShards) reaches a shard daemon
// through these same routes — /healthz for identity, POST /query with
// one spec per call, /admin/* for mutations and snapshots — so its
// traffic is admitted, saturates and is logged like any client's. It has no
// route of its own: it validates a request and forwards it, and the
// shard plans it against its own supports, so a coordinator's /stats
// never reaches into a shard (its planner.theta reads 0).
//
// Each mutation refreshes the store, so answers served after the
// response reflect it. The snapshot body is what `setcontaind
// -snapshot` loads at boot — a warm daemon restarts without rebuilding
// from the raw dataset.
//
// Answers stream as NDJSON chunks of at most Config.ChunkIDs ids, so a
// huge answer set is never encoded as one JSON document; /stream
// additionally flushes each chunk to the client as it is written. A
// chunk is clamped to wire.MaxResultIDs ids, so every line fits the
// 1 MiB line cap a coordinator reads under.
// Admission is bounded: when Config.MaxPending queries already wait for
// a slot, new ones are refused with ErrSaturated (HTTP 429) instead of
// growing an unbounded backlog, and every request's context propagates
// into the Store — and from a coordinator's Store into its shards'
// requests — so a disconnected or expired client stops its query
// mid-scan.
package serve
