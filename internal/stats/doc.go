// Package stats profiles the item-frequency distribution of a collection
// and turns the paper's central observation — containment indexes
// should exploit skew — into a build-time planning decision.
// ProfileOfSupports summarises a per-item support table (distinct
// count, hottest support, a fitted Zipf exponent); Plan derives from the
// profile which engine a partition should get (the Ordered Inverted
// File when the distribution is skewed, the plain inverted file
// otherwise) and how large the OIF's frontier blocks should be.
//
// Two subsystems consume these decisions: the Sharded engine plans each
// shard's inner engine from the supports of the records routed to it,
// and setcontain's expression planner reads the Zipf exponent fitted to
// an engine's support table.
package stats
