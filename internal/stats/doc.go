// Package stats profiles the item-frequency distribution of a record
// stream and turns the paper's central observation — containment indexes
// should exploit skew — into a build-time planning decision. A Collector
// accumulates per-item supports during ingest; Profile summarises them
// (top-k frequencies, distinct count, a fitted Zipf exponent); Plan
// derives from the profile which engine a partition should get (the
// Ordered Inverted File when the distribution is skewed, the plain
// inverted file otherwise) and how large the OIF's frontier blocks
// should be.
//
// Two subsystems consume these decisions: the Sharded engine plans each
// shard's inner engine from the profile collected while records stream
// into the shard, and setcontain's expression planner reads the Zipf
// exponent ProfileOfSupports fits to an engine's support table.
package stats
