// Package setcontain answers set-containment queries — subset, equality,
// and superset — over collections of set-valued records, implementing the
// Ordered Inverted File (OIF) of Terrovitis, Bouros, Vassiliadis, Sellis
// and Mamoulis, "Efficient Answering of Set Containment Queries for Skewed
// Item Distributions" (EDBT 2011), together with the paper's baselines.
//
// A Collection holds records (sets of uint32 items over a fixed
// vocabulary). New creates an index over it:
//
//	c := setcontain.NewCollection(1000)
//	c.Add([]setcontain.Item{3, 17, 29})
//	idx, err := setcontain.New(c, setcontain.WithKind(setcontain.OIF))
//	ids, err := idx.Subset([]setcontain.Item{3, 29}) // records ⊇ {3,29}
//
// # Engines
//
// Every index kind is an Engine: a pluggable backend implementing the
// uniform query/update interface. Four engines are registered: OIF (the
// paper's contribution, default), InvertedFile (the classic baseline),
// UnorderedBTree (the paper's ablation), and Sharded (records
// hash-partitioned across N inner engines built in parallel, each
// chosen per shard by item-frequency skew, with queries fanned out and
// merged in global id order — see WithShards). All answer the same
// queries with identical results; they differ in I/O behaviour, which
// CacheStats exposes. Kind and Options form the registry that selects
// an engine; Index is a thin convenience wrapper around one.
//
// # Queries
//
// A Query pairs a Predicate with its items and evaluates against any
// Queryable (an Index, a Reader, or an Engine):
//
//	q := setcontain.Query{Pred: setcontain.PredicateSubset, Items: items}
//	ids, err := q.Eval(idx)
//
// Query.EvalAppend is the one query primitive: it appends the answer to
// a caller-owned slice, on the zero-allocation hot path when the target
// is an OIF (a caller that wants an iterator ranges over slices.Values
// of the answer). Query.String and ParseExpr (then Expr.AsQuery)
// round-trip the textual form ("subset{3 17 29}") the CLIs and the
// serve package's wire format use. An Expr combines queries with And,
// Or and Not — a Query is its one-leaf case — and Index.EvalExprLimit
// answers one with cost-planned evaluation (limit 0: the whole answer);
// PlanExpr(e, idx.Supports()) shows the plan.
//
// # Concurrency
//
// An Index's own predicates are not safe for concurrent use — they
// share a buffer pool whose cache state they mutate, mirroring the
// paper's single-stream evaluation — while its mutations and NewReader
// are (see Index). For parallel traffic either create one Reader per goroutine
// with NewReader, or use a Store: a concurrency-safe facade that pools
// readers internally and honours context cancellation:
//
//	st := setcontain.NewStore(idx, 0)
//	ids, err := st.Exec(ctx, q)
//	ids, err = st.ExecExprLimitAppend(ctx, ids[:0], expr, 10)
//
// Every Store form — Exec, ExecAppend, ExecExprAppend,
// ExecExprLimitAppend, ExecBatch — is a thin adapter over one request
// core that answers one request on one pooled reader: a request that
// is one plain leaf with no limit runs straight on the reader, anything
// else is planned once and counted in ExprStats. Over a sharded index
// every request — a plain leaf as its one-leaf expression — is pushed
// down whole to every shard. ExecBatch fans many queries out across
// pooled readers. The setcontain/serve package calls
// ExecExprLimitAppend once per query, on the request's own goroutine.
//
// # Durability and mutation
//
// The OIF is a disk-resident structure, and the package treats indexes
// as restartable state. Index.Save writes a self-describing snapshot
// container — engine kind, build options, pages or lists, pending
// inserts, and tombstones, CRC-guarded throughout — and Open
// reconstructs the right engine from it without the original dataset:
//
//	err := idx.Save(f)
//	restored, err := setcontain.Open(f)
//
// Collections evolve in place: Insert adds records to a memory delta
// (visible immediately), Delete tombstones them (masked immediately,
// ids never reused), and MergeDelta folds both into the disk structures
// — postings of deleted records are physically removed, while
// CacheStats carries across the merge cumulatively.
// OIF, InvertedFile, and Sharded support the full lifecycle; the UBT
// ablation answers queries only.
package setcontain
