package setcontain

import (
	"fmt"
	"strings"
)

// Kind selects an engine from the registry.
type Kind int

// The registered engine kinds.
const (
	// OIF is the paper's Ordered Inverted File (default).
	OIF Kind = iota
	// InvertedFile is the classic inverted-file baseline.
	InvertedFile
	// UnorderedBTree indexes list blocks in a B-tree without the OIF's
	// global ordering or metadata (the paper's ablation).
	UnorderedBTree
	// Sharded hash-partitions records across N inner engines built in
	// parallel, each chosen per shard by item-frequency skew (OIF for
	// skewed shards, InvertedFile otherwise); queries fan out to every
	// shard and merge in global id order. See WithShards.
	Sharded
)

// String returns the kind's conventional short name ("OIF", "IF",
// "UBT", or "Sharded"), as the experiment reports print it.
func (k Kind) String() string {
	switch k {
	case OIF:
		return "OIF"
	case InvertedFile:
		return "IF"
	case UnorderedBTree:
		return "UBT"
	case Sharded:
		return "Sharded"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind resolves the conventional engine names used by the CLIs:
// "oif", "if" (or "invfile"), "ubt" (or "ubtree"), and "sharded",
// case-insensitively.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "oif":
		return OIF, nil
	case "if", "invfile", "inverted-file":
		return InvertedFile, nil
	case "ubt", "ubtree", "unordered-btree":
		return UnorderedBTree, nil
	case "sharded":
		return Sharded, nil
	default:
		return 0, fmt.Errorf("setcontain: unknown index kind %q (want oif, if, ubt, or sharded)", s)
	}
}

// Options is what the functional options of New and Open configure.
// The zero value selects the OIF with 4 KB pages, 64-posting blocks,
// and the paper's minimal 32 KB query cache.
type Options struct {
	Kind Kind
	// PageSize of the index file in bytes (default 4096).
	PageSize int
	// BlockPostings caps postings per OIF/UBT list block (default 64;
	// left unset, a Sharded build sizes each OIF shard's from its skew).
	BlockPostings int
	// CachePages sizes the buffer pool queries run through (default 8,
	// the paper's 32 KB minimum). Larger caches reduce page accesses.
	CachePages int
	// Shards is the Sharded engine's partition count (default: one per
	// CPU, minimum 2). Ignored by the other kinds.
	Shards int
}

// Option mutates an Options; pass them to New or Open.
type Option func(*Options)

// newOptions assembles an Options from functional options (zero-valued
// fields keep their documented defaults).
func newOptions(opts ...Option) Options {
	var o Options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// WithKind selects the engine.
func WithKind(k Kind) Option { return func(o *Options) { o.Kind = k } }

// WithPageSize sets the index file's page size in bytes.
func WithPageSize(n int) Option { return func(o *Options) { o.PageSize = n } }

// WithBlockPostings caps postings per OIF/UBT list block.
func WithBlockPostings(n int) Option { return func(o *Options) { o.BlockPostings = n } }

// WithCachePages sizes the query cache in pages.
func WithCachePages(n int) Option { return func(o *Options) { o.CachePages = n } }

// WithShards sets the Sharded engine's partition count (n <= 0 keeps
// the default: one shard per CPU, minimum 2).
func WithShards(n int) Option { return func(o *Options) { o.Shards = n } }
