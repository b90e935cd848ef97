package stats

import (
	"cmp"
	"math"
	"slices"
)

// Profile summarises an item-frequency distribution: all that Skewed
// and Plan consult.
type Profile struct {
	// Distinct is the number of items with non-zero support.
	Distinct int
	// MaxFreq is the support of the most frequent item.
	MaxFreq int64
	// Theta is the exponent of a Zipf law fitted to the rank-frequency
	// curve by least squares in log-log space: support(rank) ~
	// C/rank^Theta. Zero means uniform; the paper sweeps 0..1.
	Theta float64
}

// ProfileOfSupports summarises a per-item support table (index = item
// id, value = support, as dataset.Support and Engine.ItemSupports count
// it). The table is not modified.
func ProfileOfSupports(support []int64) Profile {
	counts := make([]int64, 0, len(support))
	for _, n := range support {
		if n > 0 {
			counts = append(counts, n)
		}
	}
	slices.SortFunc(counts, func(a, b int64) int { return cmp.Compare(b, a) })
	p := Profile{Distinct: len(counts), Theta: FitZipf(counts)}
	if len(counts) > 0 {
		p.MaxFreq = counts[0]
	}
	return p
}

// FitZipf estimates the Zipf exponent of a descending rank-frequency
// curve: the negated slope of the least-squares line through
// (ln rank, ln count). Counts must be positive and sorted descending;
// fewer than two distinct ranks yield 0 (no measurable skew).
func FitZipf(counts []int64) float64 {
	n := len(counts)
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i, c := range counts {
		if c <= 0 {
			n = i
			break
		}
		x := math.Log(float64(i + 1))
		y := math.Log(float64(c))
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	if n < 2 {
		return 0
	}
	fn := float64(n)
	den := fn*sxx - sx*sx
	if den == 0 {
		return 0
	}
	theta := -(fn*sxy - sx*sy) / den
	if theta < 0 {
		// A rising "rank-frequency" curve cannot happen on sorted input;
		// clamp noise to uniform.
		theta = 0
	}
	return theta
}

// SkewThreshold is the fitted Zipf exponent above which a distribution
// counts as skewed. The paper's synthetic sweep uses theta in
// {0, 0.4, 0.8, 1}; its OIF gains materialise clearly from ~0.4 up, so
// the planner switches engines midway through that range.
const SkewThreshold = 0.4

// minDistinctForSkew guards the fit: with a handful of distinct items
// the log-log regression is noise, and either engine performs alike.
const minDistinctForSkew = 8

// Skewed reports whether the profiled distribution is skewed enough for
// the Ordered Inverted File to pay off.
func (p Profile) Skewed() bool {
	return p.Distinct >= minDistinctForSkew && p.Theta >= SkewThreshold
}

// Plan is the build-time decision derived from a Profile.
type Plan struct {
	// UseOIF selects the Ordered Inverted File; false selects the plain
	// inverted file (uniform distributions gain nothing from ordering).
	UseOIF bool
	// BlockPostings sizes the OIF's frontier — the block cap of its
	// longest (most frequent) inverted lists. Zero when UseOIF is false.
	BlockPostings int
	// Theta echoes the fitted exponent the decision rests on.
	Theta float64
}

// Frontier block bounds: blocks below 16 postings waste tree fanout,
// blocks above 512 postings make boundary scans dominate.
const (
	minBlockPostings = 16
	maxBlockPostings = 512
)

// Plan turns a profile into build decisions. The frontier heuristic
// balances the two costs of a probed list of f postings split into
// blocks of B: ~B postings scanned per boundary block against ~f/B
// blocks in the tree; B = sqrt(f) of the hottest list equalises them,
// clamped to [16, 512] and rounded to a power of two so blocks pack
// pages evenly.
func (p Profile) Plan() Plan {
	plan := Plan{UseOIF: p.Skewed(), Theta: p.Theta}
	if plan.UseOIF {
		b := nextPow2(int(math.Sqrt(float64(p.MaxFreq))))
		plan.BlockPostings = min(max(b, minBlockPostings), maxBlockPostings)
	}
	return plan
}

// nextPow2 returns the smallest power of two >= n (n <= 1 yields 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
