package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/invfile"
	"repro/internal/ubtree"
)

// Pair is an IF + OIF index built over the same dataset and metered for
// measurement. Both are the backends themselves, queried, metered and
// sized directly — the paper compares index structures, not a serving
// layer.
type Pair struct {
	Data *dataset.Dataset
	IF   *invfile.Index
	OIF  *core.Index
}

// BuildPair constructs and meters both competing indexes.
func (c Config) BuildPair(d *dataset.Dataset) (*Pair, error) {
	ifx, err := invfile.Build(d, invfile.BuildOptions{PageSize: c.PageSize})
	if err != nil {
		return nil, fmt.Errorf("experiments: build IF: %w", err)
	}
	if _, err := Meter(ifx, c.PoolPages); err != nil {
		return nil, err
	}
	oif, err := core.Build(d, core.Options{PageSize: c.PageSize, BlockPostings: c.BlockPostings})
	if err != nil {
		return nil, fmt.Errorf("experiments: build OIF: %w", err)
	}
	if _, err := Meter(oif, c.PoolPages); err != nil {
		return nil, err
	}
	return &Pair{Data: d, IF: ifx, OIF: oif}, nil
}

// Systems returns the pair as labelled measurement targets.
func (p *Pair) Systems() []SystemIndex {
	return []SystemIndex{
		{Name: "IF", Index: p.IF},
		{Name: "OIF", Index: p.OIF},
	}
}

// BuildUnordered constructs and meters the §5 ablation index with the
// same block size as the OIF under comparison.
func (c Config) BuildUnordered(d *dataset.Dataset) (*ubtree.Index, error) {
	ub, err := ubtree.Build(d, ubtree.Options{PageSize: c.PageSize, BlockPostings: c.BlockPostings})
	if err != nil {
		return nil, fmt.Errorf("experiments: build unordered B-tree: %w", err)
	}
	if _, err := Meter(ub, c.PoolPages); err != nil {
		return nil, err
	}
	return ub, nil
}

// SyntheticDefaults mirrors §5: domain 2 000, Zipf 0.8, cardinalities
// 2-20, |D| = 10M x Scale.
func (c Config) SyntheticDefaults() dataset.SyntheticConfig {
	return dataset.SyntheticConfig{
		NumRecords: c.scaled(10_000_000),
		DomainSize: 2000,
		MinLen:     2,
		MaxLen:     20,
		ZipfTheta:  0.8,
		Seed:       c.Seed,
	}
}
