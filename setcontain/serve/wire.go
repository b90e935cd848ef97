package serve

import (
	"fmt"

	"repro/internal/wire"
	"repro/setcontain"
)

// The wire types are the service's JSON vocabulary. Requests carry
// queries in the same textual vocabulary as the CLIs — predicate names
// from Predicate.String, items as decimal uint32s, boolean expressions
// in the setcontain.ParseExpr grammar — so setcontain.ParsePredicate /
// setcontain.ParseExpr are the single parsing authority on both the
// library and wire paths.
//
// The bodies a coordinator's remote shard client also reads or writes
// are declared once, in internal/wire (setcontain cannot import this
// package); the aliases keep their names here. Fields: see that package.
type (
	// QueryRequest is the POST /query body.
	QueryRequest = wire.QueryRequest
	// QuerySpec is one query of a QueryRequest.
	QuerySpec = wire.QuerySpec
	// QueryErrorResponse is the JSON body of a 400 answer to a query.
	QueryErrorResponse = wire.QueryErrorResponse
	// Result is one NDJSON line of a /query or /stream answer.
	Result = wire.Result
	// HealthResponse is the GET /healthz body.
	HealthResponse = wire.HealthResponse
	// WALHealthJSON is the /healthz write-ahead-log summary.
	WALHealthJSON = wire.WALHealthJSON
	// InsertRequest is the POST /admin/insert body.
	InsertRequest = wire.InsertRequest
	// InsertResponse is the POST /admin/insert answer.
	InsertResponse = wire.InsertResponse
	// DeleteRequest is the POST /admin/delete body.
	DeleteRequest = wire.DeleteRequest
)

// parseSpec converts a spec to an expression tree: Expr through
// setcontain.ParseExpr (errors keep their *setcontain.ParseError
// offset), a Pred/Items pair — its predicate name validated — as the
// one-leaf degenerate expression.
func parseSpec(qs QuerySpec) (*setcontain.Expr, error) {
	if qs.Expr != "" {
		if qs.Pred != "" || len(qs.Items) != 0 {
			return nil, fmt.Errorf("serve: spec sets both expr and pred/items")
		}
		return setcontain.ParseExpr(qs.Expr)
	}
	pred, err := setcontain.ParsePredicate(qs.Pred)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return setcontain.ExprOf(setcontain.Query{Pred: pred, Items: qs.Items}), nil
}

// SpecOf renders a setcontain.Query as its wire spec.
func SpecOf(q setcontain.Query) QuerySpec {
	return QuerySpec{Pred: q.Pred.String(), Items: q.Items}
}

// SpecOfExpr renders an expression as its wire spec: one-leaf trees
// keep the structured Pred/Items form, everything else the textual
// grammar.
func SpecOfExpr(e *setcontain.Expr) QuerySpec {
	if q, ok := e.AsQuery(); ok {
		return SpecOf(q)
	}
	return QuerySpec{Expr: e.String()}
}

// InsertErrorResponse is the POST /admin/insert error body (status 400
// or 503). A mid-batch failure leaves the earlier inserts applied —
// with a write-ahead log attached they are already durably acknowledged
// server-side — so the body carries their ids alongside the error,
// letting the client reconcile the partial batch instead of guessing.
// FailedSet is the request index of the first set whose insert is not
// acknowledged (always len(ids)): everything before it stuck,
// everything from it on did not.
type InsertErrorResponse struct {
	Error     string   `json:"error"`
	IDs       []uint32 `json:"ids"`
	FailedSet int      `json:"failed_set"`
}

// DeleteResponse reports how many records the request tombstoned.
type DeleteResponse struct {
	Deleted int `json:"deleted"`
}

// AdminStateResponse reports the index's mutation state after an admin
// operation (the POST /admin/merge body, and useful to poll).
type AdminStateResponse struct {
	Records int `json:"records"`         // indexed records (tombstoned slots included)
	Pending int `json:"pending_inserts"` // unmerged inserts
	Deleted int `json:"deleted"`         // tombstoned records
}

// StatsResponse is the GET /stats body: everything a load test or
// operator needs to see whether admission and the caches are doing
// their jobs.
type StatsResponse struct {
	// Batcher is the admission counters.
	Batcher BatcherStatsJSON `json:"batcher"`
	// Store aggregates the pooled readers' page-cache counters.
	Store StoreStatsJSON `json:"store"`
	// ShardPlans lists the per-shard planning decisions of a sharded
	// engine (absent otherwise).
	ShardPlans []ShardPlanJSON `json:"shard_plans,omitempty"`
	// Planner is the boolean-expression planner's accounting: how many
	// multi-leaf expressions ran and how much leaf work the cost-based
	// ordering short-circuited away.
	Planner PlannerStatsJSON `json:"planner"`
	// Streams counts GET /stream requests served and aborted
	// (client disconnect or error mid-stream).
	Streams StreamStatsJSON `json:"streams"`
	// Snapshots counts POST /admin/snapshot downloads completed and
	// failed (client disconnect or write error mid-container).
	Snapshots SnapshotStatsJSON `json:"snapshots"`
	// WAL reports the write-ahead log's state when one is attached
	// (absent otherwise).
	WAL *WALStatsJSON `json:"wal,omitempty"`
	// UptimeSeconds is the seconds since the server was created.
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// BatcherStatsJSON mirrors BatcherStats on the wire.
type BatcherStatsJSON struct {
	Queries  int64 `json:"queries"`
	Rejected int64 `json:"rejected"`
	Canceled int64 `json:"canceled"`
	Pending  int   `json:"pending"`
}

// StoreStatsJSON mirrors setcontain.StoreStats on the wire.
type StoreStatsJSON struct {
	CacheHits int64 `json:"cache_hits"`
	PageReads int64 `json:"page_reads"`
}

// ShardPlanJSON mirrors setcontain.ShardPlan on the wire.
type ShardPlanJSON struct {
	Shard         int     `json:"shard"`
	Kind          string  `json:"kind"`
	Records       int     `json:"records"`
	Theta         float64 `json:"theta"`
	BlockPostings int     `json:"block_postings,omitempty"`
}

// PlannerStatsJSON mirrors setcontain.ExprStats on the wire, plus the
// skew parameter the cost model planned against. EvaluatedLeaves and
// SkippedLeaves split each expression's containment leaves into ones
// actually run and ones the rarest-first ordering's empty-intermediate
// short-circuit discarded; StreamedLeaves counts the evaluated leaves
// answered at the accumulator's candidates, under AND or NOT, instead
// of materializing their full answer. Theta is the fitted Zipf exponent
// of the store's cached support profile — 0 on a coordinator, whose
// remote shards keep their tables and plan for themselves.
type PlannerStatsJSON struct {
	Expressions     int64   `json:"expressions"`
	EvaluatedLeaves int64   `json:"evaluated_leaves"`
	StreamedLeaves  int64   `json:"streamed_leaves"`
	SkippedLeaves   int64   `json:"skipped_leaves"`
	Theta           float64 `json:"theta"`
}

// StreamStatsJSON counts the /stream endpoint's outcomes.
type StreamStatsJSON struct {
	Served  int64 `json:"served"`
	Aborted int64 `json:"aborted"`
}

// SnapshotStatsJSON counts the /admin/snapshot endpoint's outcomes.
type SnapshotStatsJSON struct {
	Served int64 `json:"served"`
	Failed int64 `json:"failed"`
}

// WALStatsJSON is the /stats view of the durability layer: the log's
// size and position, checkpoint progress, startup replay cost, and
// fsync latency. BytesSinceCheckpoint is the distance to the next
// automatic checkpoint; ReplayMillis is what the last restart paid to
// recover.
type WALStatsJSON struct {
	Segments             int     `json:"segments"`
	TotalBytes           int64   `json:"total_bytes"`
	LastLSN              uint64  `json:"last_lsn"`
	CheckpointLSN        uint64  `json:"checkpoint_lsn"`
	BytesSinceCheckpoint int64   `json:"bytes_since_checkpoint"`
	Appends              int64   `json:"appends"`
	Syncs                int64   `json:"syncs"`
	LastSyncMicros       float64 `json:"last_sync_micros"`
	MeanSyncMicros       float64 `json:"mean_sync_micros"`
	Checkpoints          int64   `json:"checkpoints"`
	ReplayRecords        int     `json:"replay_records"`
	ReplayMillis         float64 `json:"replay_ms"`
	ReplayTruncated      bool    `json:"replay_truncated,omitempty"`
	Wedged               bool    `json:"wedged,omitempty"`
}

// CheckpointResponse is the POST /admin/checkpoint body: the new
// watermark and the log's post-truncation footprint.
type CheckpointResponse struct {
	CheckpointLSN uint64 `json:"checkpoint_lsn"`
	Segments      int    `json:"segments"`
	LogBytes      int64  `json:"log_bytes"`
}
