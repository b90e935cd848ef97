// Package wire declares, once, every JSON body that crosses between a
// daemon (setcontain/serve) and the remote shard client
// (setcontain/remote.go). setcontain cannot import serve — serve imports
// setcontain — so the bodies both ends must agree on live in this
// dependency-free leaf; serve re-exports them under its own names as
// aliases, and the JSON tags here are the protocol. Items and record
// ids are spelled uint32 (setcontain.Item is an alias of it). The
// answer stream's Result lines, the one body whose size grows with the
// answer, are written and read through the codec AppendResult /
// DecodeResult rather than by each end's own encoding/json calls.
package wire

// QueryRequest is the POST /query body: the queries to answer, in
// order. Answers stream back as Result lines keyed by query index.
type QueryRequest struct {
	Queries []QuerySpec `json:"queries"`
}

// QuerySpec is one query on the wire: either a single containment
// predicate — a predicate name ("subset", "equality", or "superset",
// as Predicate.String spells them) plus the query items — or a boolean
// expression in Expr, the textual setcontain.ParseExpr grammar
// ("subset{1 2} and not superset{3}"). Setting Expr alongside Pred is
// an error: one spec is one query, spelled one way.
type QuerySpec struct {
	Pred  string   `json:"pred,omitempty"`
	Items []uint32 `json:"items,omitempty"`
	Expr  string   `json:"expr,omitempty"`
	// Limit caps the answer to its first Limit ids (ascending). Zero or
	// absent means the full answer; a negative limit is rejected (400).
	Limit int `json:"limit,omitempty"`
}

// QueryErrorResponse is the JSON body of a 400 answer to a query whose
// textual form failed to parse. Offset is the byte position of the
// failing token inside the query string (present exactly when the
// failure was a positioned *setcontain.ParseError), so clients can
// point at the error instead of re-lexing the message.
type QueryErrorResponse struct {
	Error  string `json:"error"`
	Offset *int   `json:"offset,omitempty"`
}

// Result is one NDJSON response line, written by AppendResult and read
// by DecodeResult. A query's answer arrives as zero or more chunk lines
// (More true) followed by one final line (Done true) carrying the total
// count — so clients consume arbitrarily large answers without either
// side materializing them. Error lines are final lines with Error set.
type Result struct {
	// Query is the index of the answered query in the request.
	Query int `json:"query"`
	// IDs is this chunk's slice of the ascending answer ids.
	IDs []uint32 `json:"ids,omitempty"`
	// More marks a non-final chunk: further lines follow for this query.
	More bool `json:"more,omitempty"`
	// Done marks the query's final line.
	Done bool `json:"done,omitempty"`
	// Count is the total ids answered; meaningful on the final line
	// (always present there, including 0 for an empty answer) and 0 on
	// chunk lines.
	Count int `json:"count"`
	// Error is the query's error, set on the final line when it failed.
	Error string `json:"error,omitempty"`
}

// MaxLineBytes caps one NDJSON answer line, its newline not counted: a
// coordinator refuses a longer line from a shard, so a broken or hostile
// shard cannot grow its read buffer unbounded.
const MaxLineBytes = 1 << 20

// MaxResultIDs is the most ids one Result line may carry and still fit
// MaxLineBytes. An id costs at most eleven bytes ("4294967295,"); the
// rest of a line is at most its keys, both flags and two ints at their
// widest.
const MaxResultIDs = (MaxLineBytes - resultLineOverhead) / 11

const resultLineOverhead = len(`{"query":,"ids":[],"more":true,"done":true,"count":}`) + 2*len("-9223372036854775808")

// HealthResponse is the GET /healthz body. A coordinator reads a
// shard's identity (kind, counts, vocabulary) from it.
type HealthResponse struct {
	OK      bool   `json:"ok"`
	Kind    string `json:"kind"`            // engine kind serving the index
	Records int    `json:"records"`         // indexed records (tombstoned slots included)
	Domain  int    `json:"domain"`          // vocabulary size
	Pending int    `json:"pending_inserts"` // unmerged inserts
	Deleted int    `json:"deleted"`         // tombstoned records
	// WAL summarizes the write-ahead log when one is attached: absent
	// means the daemon serves the plain in-memory mutation path.
	WAL *WALHealthJSON `json:"wal,omitempty"`
}

// WALHealthJSON is the /healthz WAL summary. A Wedged log means a log
// append or fsync failed: mutations are refused (503) until the process
// restarts and recovers, while queries keep being served.
type WALHealthJSON struct {
	LastLSN       uint64 `json:"last_lsn"`
	CheckpointLSN uint64 `json:"checkpoint_lsn"`
	Segments      int    `json:"segments"`
	Wedged        bool   `json:"wedged,omitempty"`
}

// InsertRequest is the POST /admin/insert body: one or more record sets
// to add to the live index's delta.
type InsertRequest struct {
	Sets [][]uint32 `json:"sets"`
}

// InsertResponse reports the ids assigned to the inserted records, in
// request order.
type InsertResponse struct {
	IDs []uint32 `json:"ids"`
}

// DeleteRequest is the POST /admin/delete body: record ids to tombstone.
type DeleteRequest struct {
	IDs []uint32 `json:"ids"`
}
