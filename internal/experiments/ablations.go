package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/workload"
)

// RunAblations sweeps the OIF's own design knobs — beyond the paper's
// evaluation, but directly motivated by its §3 discussion of block size,
// key compression ("considering prefixes of the ordered set-values used
// as tags") and §5's cache-budget framing. Three panels:
//
//   - block size: postings per block vs pages/space (finer pruning vs
//     more B-tree entries);
//   - tag prefix: key truncation vs space and extra boundary reads;
//   - cache size: the minimal-memory claim — how quickly the IF/OIF gap
//     closes as the cache grows.
func RunAblations(cfg Config) (Figure, error) {
	cfg.fill()
	d, err := dataset.GenerateSynthetic(cfg.SyntheticDefaults())
	if err != nil {
		return Figure{}, err
	}
	fig := Figure{Name: fmt.Sprintf("Design ablations (|D|=%d, |I|=2000, zipf=0.8)", d.Len())}
	gen := workload.NewGenerator(d, cfg.Seed+900)
	subset := gen.Queries(workload.Subset, 4, cfg.QueriesPerSize)
	equality := gen.Queries(workload.Equality, 4, cfg.QueriesPerSize)

	measureOIF := func(opts core.Options) (Point, int64, error) {
		ix, err := core.Build(d, opts)
		if err != nil {
			return Point{}, 0, err
		}
		if _, err := Meter(ix, cfg.PoolPages); err != nil {
			return Point{}, 0, err
		}
		mSub, err := MeasureWorkload(ix, subset, cfg.Disk)
		if err != nil {
			return Point{}, 0, err
		}
		mEq, err := MeasureWorkload(ix, equality, cfg.Disk)
		if err != nil {
			return Point{}, 0, err
		}
		return Point{
			Systems: []SystemMetrics{
				{Name: "subset", M: mSub},
				{Name: "equality", M: mEq},
			},
		}, ix.Space().TreeBytes, nil
	}

	// Panel 1: block size.
	blockPanel := Panel{Title: "OIF block size (postings per block)", XLabel: "block"}
	for _, bp := range []int{16, 64, 256} {
		pt, treeBytes, err := measureOIF(core.Options{PageSize: cfg.PageSize, BlockPostings: bp})
		if err != nil {
			return Figure{}, err
		}
		pt.Param = fmt.Sprintf("%d (tree %d KB)", bp, treeBytes/1024)
		blockPanel.Points = append(blockPanel.Points, pt)
	}
	fig.Panels = append(fig.Panels, blockPanel)

	// Panel 2: tag prefix length (0 = full tags).
	tagPanel := Panel{Title: "OIF tag prefix (0 = full sequence form)", XLabel: "prefix"}
	for _, tp := range []int{0, 4, 2, 1} {
		pt, treeBytes, err := measureOIF(core.Options{
			PageSize: cfg.PageSize, BlockPostings: cfg.BlockPostings, TagPrefix: tp,
		})
		if err != nil {
			return Figure{}, err
		}
		pt.Param = fmt.Sprintf("%d (tree %d KB)", tp, treeBytes/1024)
		tagPanel.Points = append(tagPanel.Points, pt)
	}
	fig.Panels = append(fig.Panels, tagPanel)

	// Panel 3: cache size, IF vs OIF on the same pair.
	pair, err := cfg.BuildPair(d)
	if err != nil {
		return Figure{}, err
	}
	cachePanel := Panel{Title: "cache size (pages of 4 KB), subset |qs|=4", XLabel: "cache"}
	for _, pages := range []int{8, 64, 512} {
		if _, err := Meter(pair.IF, pages); err != nil {
			return Figure{}, err
		}
		if _, err := Meter(pair.OIF, pages); err != nil {
			return Figure{}, err
		}
		sys, err := MeasureSystems(pair.Systems(), subset, cfg.Disk)
		if err != nil {
			return Figure{}, err
		}
		cachePanel.Points = append(cachePanel.Points, Point{Param: fmt.Sprint(pages), Systems: sys})
	}
	fig.Panels = append(fig.Panels, cachePanel)

	PrintFigure(cfg.Out, fig)
	return fig, nil
}
