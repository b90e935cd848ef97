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
	rng := rand.New(rand.NewSource(c.Seed))
	z := NewZipf(c.DomainSize, c.ZipfTheta)
	d := New(c.DomainSize)
	maxLen := c.MaxLen
	if maxLen > c.DomainSize {
		maxLen = c.DomainSize
	}
	minLen := c.MinLen
	if minLen > maxLen {
		minLen = maxLen
	}
	d.records = make([]Record, 0, c.NumRecords)
	var set []Item // Add copies, so one draw buffer serves every record
	for i := 0; i < c.NumRecords; i++ {
		k := minLen + rng.Intn(maxLen-minLen+1)
		set = z.appendDistinct(set[:0], rng, k)
		if _, err := d.Add(set); err != nil {
			return nil, err
		}
	}
	return d, nil
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
	const domain = 294
	rng := rand.New(rand.NewSource(c.Seed))
	z := NewZipf(domain, 1.05)
	d := New(domain)
	d.records = make([]Record, 0, c.BaseRecords*c.Replicas)
	var set []Item
	for i := 0; i < c.BaseRecords; i++ {
		k := truncGeometric(rng, 1.0/3.0, 1, 35)
		set = z.appendDistinct(set[:0], rng, k)
		if _, err := d.Add(set); err != nil {
			return nil, err
		}
	}
	// Every replica re-adds the first one's records, already canonical.
	for rep := 1; rep < c.Replicas; rep++ {
		for i := 0; i < c.BaseRecords; i++ {
			if _, err := d.Add(d.records[i].Set); err != nil {
				return nil, err
			}
		}
	}
	return d, nil
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
	const domain = 17
	rng := rand.New(rand.NewSource(c.Seed))
	z := NewZipf(domain, 0.25)
	d := New(domain)
	d.records = make([]Record, 0, c.NumRecords)
	var set []Item
	for i := 0; i < c.NumRecords; i++ {
		k := truncGeometric(rng, 1.0/5.7, 1, domain)
		set = z.appendDistinct(set[:0], rng, k)
		if _, err := d.Add(set); err != nil {
			return nil, err
		}
	}
	return d, nil
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
