package dataset

import (
	"fmt"
	"math/rand"
)

// SyntheticConfig parameterises the paper's synthetic generator (§5,
// "Data"): |D| set-values over a vocabulary of |I| items, cardinalities
// uniform in [MinLen, MaxLen] (the paper uses 2..20), item frequencies
// following a Zipfian distribution of the given order.
type SyntheticConfig struct {
	NumRecords int
	DomainSize int
	MinLen     int
	MaxLen     int
	ZipfTheta  float64
	Seed       int64
}

// DefaultSynthetic mirrors the paper's defaults — domain of 2 000 items,
// Zipf order 0.8, cardinalities 2..20 — at a caller-chosen |D| (the paper
// default is 10M; the harness scales it).
func DefaultSynthetic(numRecords int) SyntheticConfig {
	return SyntheticConfig{
		NumRecords: numRecords,
		DomainSize: 2000,
		MinLen:     2,
		MaxLen:     20,
		ZipfTheta:  0.8,
		Seed:       1,
	}
}

func (c SyntheticConfig) validate() error {
	if c.NumRecords < 0 {
		return fmt.Errorf("dataset: negative NumRecords %d", c.NumRecords)
	}
	if c.DomainSize <= 0 {
		return fmt.Errorf("dataset: DomainSize %d must be positive", c.DomainSize)
	}
	if c.MinLen < 1 || c.MaxLen < c.MinLen {
		return fmt.Errorf("dataset: bad cardinality range [%d,%d]", c.MinLen, c.MaxLen)
	}
	if c.ZipfTheta < 0 {
		return fmt.Errorf("dataset: negative ZipfTheta %f", c.ZipfTheta)
	}
	return nil
}

// GenerateSynthetic builds a dataset per the config.
func GenerateSynthetic(c SyntheticConfig) (*Dataset, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	d := New(c.DomainSize)
	return d, generate(d, c.source(), genBatch)
}

// source is the synthetic generator's recipe: per record a cardinality
// uniform in [MinLen, MaxLen], clamped to the domain, then that many
// distinct Zipf draws.
func (c SyntheticConfig) source() source {
	rng := rand.New(rand.NewSource(c.Seed))
	z := NewZipf(c.DomainSize, c.ZipfTheta)
	maxLen := min(c.MaxLen, c.DomainSize)
	minLen := min(c.MinLen, maxLen)
	return source{records: c.NumRecords, maxLen: maxLen, draw: func(dst []Item) []Item {
		k := minLen + rng.Intn(maxLen-minLen+1)
		return z.appendDistinct(dst, rng, k)
	}}
}

// MSWebConfig describes the msweb twin. The real dataset is a one-week
// www.microsoft.com log: 32 711 records over 294 virtual areas, skewed
// item distribution, average cardinality 3; the paper replicates it 10×
// to obtain a larger database ("this replication is meaningful, since it
// simply simulates a 10-week log"). Replication matters: every set value
// appears 10 times, which exercises the OIF's duplicate handling
// (equality answers spanning blocks).
type MSWebConfig struct {
	BaseRecords int
	Replicas    int
	Seed        int64
}

// DefaultMSWeb returns the published statistics.
func DefaultMSWeb() MSWebConfig {
	return MSWebConfig{BaseRecords: 32711, Replicas: 10, Seed: 2}
}

// GenerateMSWeb builds the msweb statistical twin: 294 items, Zipf-skewed
// draws (theta 1.05 reproduces the strongly skewed area popularity of a
// web portal), truncated-geometric cardinalities with mean ≈ 3.
func GenerateMSWeb(c MSWebConfig) (*Dataset, error) {
	if c.BaseRecords < 0 || c.Replicas < 1 {
		return nil, fmt.Errorf("dataset: bad msweb config %+v", c)
	}
	d := New(msWebDomain)
	d.Grow(c.BaseRecords*c.Replicas, 0)
	if err := generate(d, c.source(), genBatch); err != nil {
		return nil, err
	}
	// Every replica re-adds the first one's records, already canonical.
	for rep := 1; rep < c.Replicas; rep++ {
		for _, r := range d.Range(0, c.BaseRecords) {
			if _, err := d.Add(r.Set); err != nil {
				return nil, err
			}
		}
	}
	return d, nil
}

// msWebDomain is the msweb twin's number of virtual areas.
const msWebDomain = 294

// source is the msweb twin's recipe for its base records.
func (c MSWebConfig) source() source {
	rng := rand.New(rand.NewSource(c.Seed))
	z := NewZipf(msWebDomain, 1.05)
	return source{records: c.BaseRecords, maxLen: 35, draw: func(dst []Item) []Item {
		return z.appendDistinct(dst, rng, truncGeometric(rng, 1.0/3.0, 1, 35))
	}}
}

// MSNBCConfig describes the msnbc twin: 989 818 records of page-category
// visits over only 17 items, near-uniform item distribution, average
// cardinality 5.7.
type MSNBCConfig struct {
	NumRecords int
	Seed       int64
}

// DefaultMSNBC returns the published statistics.
func DefaultMSNBC() MSNBCConfig {
	return MSNBCConfig{NumRecords: 989818, Seed: 3}
}

// GenerateMSNBC builds the msnbc statistical twin. A mild skew
// (theta 0.25) matches the paper's "relatively uniform" description while
// keeping the items distinguishable; cardinalities are truncated-geometric
// with mean ≈ 5.7, capped at the 17-item domain.
func GenerateMSNBC(c MSNBCConfig) (*Dataset, error) {
	if c.NumRecords < 0 {
		return nil, fmt.Errorf("dataset: bad msnbc config %+v", c)
	}
	d := New(msnbcDomain)
	return d, generate(d, c.source(), genBatch)
}

// msnbcDomain is the msnbc twin's number of page categories.
const msnbcDomain = 17

// source is the msnbc twin's recipe.
func (c MSNBCConfig) source() source {
	rng := rand.New(rand.NewSource(c.Seed))
	z := NewZipf(msnbcDomain, 0.25)
	return source{records: c.NumRecords, maxLen: msnbcDomain, draw: func(dst []Item) []Item {
		return z.appendDistinct(dst, rng, truncGeometric(rng, 1.0/5.7, 1, msnbcDomain))
	}}
}

// source is one generator's recipe: how many records it makes, the most
// items one can hold, and draw, which appends the next record's items to
// dst. draw holds the generator's one rng, so the records must be drawn
// in order, on one goroutine.
type source struct {
	records, maxLen int
	draw            func(dst []Item) []Item
}

// genBatch is the number of records generate's drawing stage hands over
// at a time.
const genBatch = 4096

// maxBatchItems caps the items a drawBatch is sized for up front (512
// KiB); a batch of longer sets grows its buffer, which stays grown.
const maxBatchItems = 1 << 17

// drawBatch is one hand-over between generate's stages: the items of a
// run of records, end to end, and where each record ends.
type drawBatch struct {
	items []Item
	ends  []int
}

// generate appends src's records to d in a two-stage pipeline: one
// goroutine makes every draw, in record order, into batches of up to
// batch records, and the caller's goroutine canonicalises each batch
// into d's record arena while the next one is drawn. Two batches
// circulate, so neither stage allocates once both are sized. The records
// are those of a serial loop of draw then Add; a failing Add stops the
// canonicalising, and the drawing runs to its end.
func generate(d *Dataset, src source, batch int) error {
	n := src.records
	d.Grow(n, 0)
	batch = max(1, min(batch, n))
	// Each channel can hold both batches, so no send ever blocks.
	free := make(chan *drawBatch, 2)
	full := make(chan *drawBatch, 2)
	for range cap(free) {
		free <- &drawBatch{items: make([]Item, 0, min(batch*src.maxLen, maxBatchItems)), ends: make([]int, 0, batch)}
	}
	go func() {
		defer close(full)
		for done := 0; done < n; {
			b := <-free
			b.items, b.ends = b.items[:0], b.ends[:0]
			for m := min(batch, n-done); len(b.ends) < m; {
				b.items = src.draw(b.items)
				b.ends = append(b.ends, len(b.items))
			}
			done += len(b.ends)
			full <- b
		}
	}()
	var err error
	for b := range full {
		for i, start := 0, 0; i < len(b.ends) && err == nil; i++ {
			_, err = d.Add(b.items[start:b.ends[i]])
			start = b.ends[i]
		}
		free <- b
	}
	return err
}

// truncGeometric draws from a geometric distribution with success
// probability p (mean 1/p), truncated to [lo, hi].
func truncGeometric(rng *rand.Rand, p float64, lo, hi int) int {
	k := 1
	for rng.Float64() > p && k < hi {
		k++
	}
	if k < lo {
		k = lo
	}
	return k
}
