package stats

import (
	"math"
	"sort"
)

// ItemFreq is one vocabulary item with its support (number of records
// containing it).
type ItemFreq struct {
	Item  uint32
	Count int64
}

// Collector accumulates item supports while records stream past. It is
// not safe for concurrent use; shard builders run one collector each.
type Collector struct {
	support  []int64
	records  int
	postings int64
	maxCard  int
}

// NewCollector returns a collector over items [0, domainSize).
func NewCollector(domainSize int) *Collector {
	if domainSize < 0 {
		domainSize = 0
	}
	return &Collector{support: make([]int64, domainSize)}
}

// Add feeds one record's item set (items must lie in the domain;
// out-of-domain items are ignored rather than panicking, since the
// dataset layer already validates them).
func (c *Collector) Add(set []uint32) {
	c.records++
	c.postings += int64(len(set))
	if len(set) > c.maxCard {
		c.maxCard = len(set)
	}
	for _, it := range set {
		if int(it) < len(c.support) {
			c.support[it]++
		}
	}
}

// NumRecords returns how many records have been added.
func (c *Collector) NumRecords() int { return c.records }

// ProfileOfSupports summarises an already-counted per-item support table
// (index = item id, value = support). Record-level fields (NumRecords,
// cardinalities, TotalPostings) are zero; the distributional fields —
// Distinct, MaxFreq, TopK, Theta — are filled, which is all that Skewed
// and Plan consult. Its one consumer is setcontain's expression planner
// (SupportsOf), which surfaces the fitted Theta.
func ProfileOfSupports(support []int64, k int) Profile {
	c := Collector{support: support}
	return c.Profile(k)
}

// Profile summarises an item-frequency distribution.
type Profile struct {
	NumRecords     int
	DomainSize     int
	TotalPostings  int64
	AvgCardinality float64
	MaxCardinality int

	// Distinct is the number of items with non-zero support.
	Distinct int
	// MaxFreq is the support of the most frequent item.
	MaxFreq int64
	// TopK lists the k most frequent items, descending by support.
	TopK []ItemFreq
	// Theta is the exponent of a Zipf law fitted to the rank-frequency
	// curve by least squares in log-log space: support(rank) ~
	// C/rank^Theta. Zero means uniform; the paper sweeps 0..1.
	Theta float64
}

// Profile snapshots the collector's distribution, retaining the k most
// frequent items (k <= 0 keeps none).
func (c *Collector) Profile(k int) Profile {
	p := Profile{
		NumRecords:     c.records,
		DomainSize:     len(c.support),
		TotalPostings:  c.postings,
		MaxCardinality: c.maxCard,
	}
	if c.records > 0 {
		p.AvgCardinality = float64(c.postings) / float64(c.records)
	}
	freqs := make([]ItemFreq, 0, len(c.support))
	for it, n := range c.support {
		if n > 0 {
			freqs = append(freqs, ItemFreq{Item: uint32(it), Count: n})
		}
	}
	sort.Slice(freqs, func(i, j int) bool {
		if freqs[i].Count != freqs[j].Count {
			return freqs[i].Count > freqs[j].Count
		}
		return freqs[i].Item < freqs[j].Item
	})
	p.Distinct = len(freqs)
	if len(freqs) > 0 {
		p.MaxFreq = freqs[0].Count
	}
	if k > len(freqs) {
		k = len(freqs)
	}
	if k > 0 {
		p.TopK = append([]ItemFreq(nil), freqs[:k]...)
	}
	counts := make([]int64, len(freqs))
	for i, f := range freqs {
		counts[i] = f.Count
	}
	p.Theta = FitZipf(counts)
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
	// longest (most frequent) inverted lists. Zero keeps the default.
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
	if plan.UseOIF && p.MaxFreq > 0 {
		b := nextPow2(int(math.Sqrt(float64(p.MaxFreq))))
		if b < minBlockPostings {
			b = minBlockPostings
		}
		if b > maxBlockPostings {
			b = maxBlockPostings
		}
		plan.BlockPostings = b
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
