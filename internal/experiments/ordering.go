package experiments

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/workload"
)

// RunOrdering regenerates the §5 "Impact of the OIF ordering" ablation:
// subset queries with selectivities swept across decades (the paper uses
// 1e-7 … 1e-2 at 10M records), OIF versus a same-block-size B-tree over
// unordered lists. The paper's finding: the OIF wins in all cases,
// because the win comes from the ordering + metadata, not from merely
// indexing the lists.
func RunOrdering(cfg Config) (Figure, error) {
	cfg.fill()
	d, err := dataset.GenerateSynthetic(cfg.SyntheticDefaults())
	if err != nil {
		return Figure{}, err
	}
	pair, err := cfg.BuildPair(d)
	if err != nil {
		return Figure{}, err
	}
	ub, err := cfg.BuildUnordered(d)
	if err != nil {
		return Figure{}, err
	}
	systems := []SystemIndex{{Name: "UBT", Index: ub}, {Name: "OIF", Index: pair.OIF}}

	// Generate a pool of subset queries across sizes, classify them by
	// true selectivity decade (measured with the OIF itself — any correct
	// evaluator does), and keep up to QueriesPerSize per decade.
	gen := workload.NewGenerator(d, cfg.Seed+600)
	buckets := map[int][]workload.Query{}
	const perBucket = 5
	for size := 2; size <= 12; size++ {
		for _, q := range gen.SubsetQueries(size, 40) {
			res, err := pair.OIF.Subset(q.Items)
			if err != nil {
				return Figure{}, err
			}
			if len(res) == 0 {
				continue
			}
			sel := float64(len(res)) / float64(d.Len())
			dec := int(math.Floor(math.Log10(sel)))
			if len(buckets[dec]) < perBucket {
				buckets[dec] = append(buckets[dec], q)
			}
		}
	}

	panel := Panel{
		Title:  fmt.Sprintf("subset queries by selectivity decade (|D|=%d)", d.Len()),
		XLabel: "selectivity",
	}
	for dec := -7; dec <= -1; dec++ {
		queries := buckets[dec]
		if len(queries) == 0 {
			continue
		}
		sys, err := MeasureSystems(systems, queries, cfg.Disk)
		if err != nil {
			return Figure{}, err
		}
		panel.Points = append(panel.Points, Point{Param: fmt.Sprintf("1e%d", dec), Systems: sys})
	}

	// Second panel: queries that include a very frequent item — the
	// workload skew the paper's introduction motivates ("users usually
	// pose queries involving the most frequent items"). This is where the
	// ordering + metadata pay off hardest: the frequent item costs the
	// OIF a metadata lookup but costs the unordered tree a near-full scan
	// of its longest list.
	freqPanel := Panel{
		Title:  "subset queries including a top-10 item",
		XLabel: "|qs|",
	}
	ord := pair.OIF.Order()
	for _, size := range []int{2, 3, 4, 6} {
		item := ord.Item(uint32(gen2Rank(size))) // a top-10 rank, varied per size
		queries := gen.SubsetQueriesWithItem(item, size, cfg.QueriesPerSize)
		if len(queries) == 0 {
			continue
		}
		sys, err := MeasureSystems(systems, queries, cfg.Disk)
		if err != nil {
			return Figure{}, err
		}
		freqPanel.Points = append(freqPanel.Points, Point{Param: fmt.Sprint(size), Systems: sys})
	}

	fig := Figure{
		Name:   "Ordering ablation: OIF vs unordered B-tree on inverted lists (subset queries)",
		Panels: []Panel{panel, freqPanel},
	}
	PrintFigure(cfg.Out, fig)
	return fig, nil
}

// gen2Rank spreads the frequent item choice over the top ranks.
func gen2Rank(size int) int { return (size * 3) % 10 }
