// Command oifbench regenerates the paper's evaluation artefacts (Figures
// 7-10, the space-overhead comparison, the ordering ablation, and the
// query/update performance summary) at a configurable fraction of the
// paper's data sizes.
//
// Usage:
//
//	oifbench -experiment all -scale 0.01
//	oifbench -experiment fig9 -scale 0.1 -queries 10
//
// At -scale 1 the synthetic sweeps use the paper's full |D| (up to 50M
// records); the default 0.01 preserves every comparison's shape on a
// laptop. docs/BENCHMARKS.md places these figures beside the repository
// benchmark (benchmark/), which measures everything above the indexes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/workload"
)

// experimentTable is every value -experiment accepts, in the order the
// flag help and the unknown-name error list them; "all" runs the others
// in that order.
var experimentTable = []struct {
	name string
	run  func(experiments.Config) error
}{
	{"all", experiments.RunAll},
	{"fig7", discard(experiments.RunFig7)},
	{"fig8", synthetic(workload.Subset)},
	{"fig9", synthetic(workload.Equality)},
	{"fig10", synthetic(workload.Superset)},
	{"space", discard(experiments.RunSpace)},
	{"ordering", discard(experiments.RunOrdering)},
	{"summary", discard(experiments.RunSummary)},
	{"ablations", discard(experiments.RunAblations)},
}

// discard adapts a runner that also returns its (already printed)
// result to the table's shape.
func discard[T any](run func(experiments.Config) (T, error)) func(experiments.Config) error {
	return func(cfg experiments.Config) error {
		_, err := run(cfg)
		return err
	}
}

func synthetic(kind workload.Kind) func(experiments.Config) error {
	return func(cfg experiments.Config) error {
		_, err := experiments.RunSyntheticFigure(cfg, kind)
		return err
	}
}

func experimentNames() string {
	names := make([]string, len(experimentTable))
	for i, e := range experimentTable {
		names[i] = e.name
	}
	return strings.Join(names, ", ")
}

func main() {
	cfg := experiments.DefaultConfig(os.Stdout)
	experiment := flag.String("experiment", "all", "one of: "+experimentNames()+" (all = every other one, in that order)")
	flag.Float64Var(&cfg.Scale, "scale", cfg.Scale, "fraction of the paper's synthetic |D| (1.0 = paper scale)")
	flag.Float64Var(&cfg.RealScale, "realscale", cfg.RealScale, "fraction of the real-dataset twins' record counts")
	flag.IntVar(&cfg.QueriesPerSize, "queries", cfg.QueriesPerSize, "queries per size and type (the paper uses 10)")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "random seed for datasets and workloads")
	flag.IntVar(&cfg.PageSize, "pagesize", cfg.PageSize, "index page size in bytes")
	flag.IntVar(&cfg.BlockPostings, "blockpostings", cfg.BlockPostings, "postings per OIF/UBT block")
	flag.IntVar(&cfg.PoolPages, "poolpages", cfg.PoolPages, "query cache size in pages (8 x 4 KB = the paper's 32 KB)")
	flag.Parse()

	var run func(experiments.Config) error
	for _, e := range experimentTable {
		if e.name == *experiment {
			run = e.run
		}
	}
	if run == nil {
		fmt.Fprintf(os.Stderr, "oifbench: unknown experiment %q (one of: %s)\n", *experiment, experimentNames())
		os.Exit(2)
	}

	start := time.Now()
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "oifbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\ncompleted in %v\n", time.Since(start).Round(time.Millisecond))
}
