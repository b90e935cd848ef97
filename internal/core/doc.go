// Package core implements the paper's contribution: the Ordered Inverted
// File (OIF). Records are globally re-ordered by the sequence form of
// their sets under the frequency order <_D and given dense ids in that
// order; each item's inverted list is cut into tagged blocks indexed in a
// single disk B+-tree; a memory-resident metadata table replaces each
// record's posting for its most frequent item with a contiguous id region
// (§3). Queries compute a Range of Interest and touch only the B-tree
// blocks that can hold answers (§4).
//
// Where the paper's machinery lives here:
//
//   - the frequency order <_D and sequence forms: internal/sequence,
//     consumed by Build in oif.go
//   - tagged list blocks and their B+-tree: keys.go and internal/btree
//   - the metadata table / region coalescing (§3.3): metadata.go
//   - the Range of Interest and the three query algorithms (§4):
//     query.go and scan.go
//   - updates (§4.4): the pending delta and tombstones live in
//     internal/overlay; update.go holds the OIF's merge, a full rebuild
//   - snapshots: persist.go
//
// Beyond the paper, the query path adds per-handle scratch arenas
// (arena.go) so warm queries run allocation-free; Reader (reader.go)
// gives each parallel goroutine an isolated page cache and arena; and
// the few lists that skew leaves dense keep an in-memory id bitmap
// beside their blocks (hot.go), which filterByList tests candidates
// against instead of decoding a visited block — the same pages read,
// the same answers. The public API in setcontain wraps this package
// behind its Engine interface.
package core
