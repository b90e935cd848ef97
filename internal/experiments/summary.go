package experiments

import (
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/workload"
)

// SummaryResult is the §5 "Performance summary" trade-off. For a 1M-record
// database over 2 000 items the paper measures the average query (all
// three predicates) at 133 ms on the IF vs 25 ms on the OIF, while batch
// inserts cost 0.06 ms/record (IF) vs 0.135 ms/record (OIF); workloads
// with fewer updates per query than the break-even ratio favour the OIF.
type SummaryResult struct {
	Records int

	QueryIF  time.Duration // avg per query, CPU + modelled I/O
	QueryOIF time.Duration

	// Per-predicate averages (same workloads as the combined figure).
	PerPredicateIF  map[workload.Kind]time.Duration
	PerPredicateOIF map[workload.Kind]time.Duration

	UpdateIF  time.Duration // avg per inserted record, CPU + modelled I/O
	UpdateOIF time.Duration

	// BreakEven is (QueryIF-QueryOIF)/(UpdateOIF-UpdateIF): how many
	// updates per query a workload must exceed before the IF's cheaper
	// maintenance outweighs the OIF's faster queries.
	BreakEven float64
}

// RunSummary regenerates the performance summary at Scale.
func RunSummary(cfg Config) (SummaryResult, error) {
	cfg.fill()
	base := cfg.SyntheticDefaults()
	base.NumRecords = cfg.scaled(1_000_000)
	d, err := dataset.GenerateSynthetic(base)
	if err != nil {
		return SummaryResult{}, err
	}
	pair, err := cfg.BuildPair(d)
	if err != nil {
		return SummaryResult{}, err
	}

	// Average query cost across the three predicates, |qs| = 2..7,
	// tracked per predicate as well.
	gen := workload.NewGenerator(d, cfg.Seed+700)
	perIF := make(map[workload.Kind]time.Duration)
	perOIF := make(map[workload.Kind]time.Duration)
	var mIF, mOIF Metrics
	var totalQueries int
	for _, kind := range []workload.Kind{workload.Subset, workload.Equality, workload.Superset} {
		var queries []workload.Query
		for size := 2; size <= 7; size++ {
			queries = append(queries, gen.Queries(kind, size, cfg.QueriesPerSize)...)
		}
		kIF, err := MeasureWorkload(pair.IF, queries, cfg.Disk)
		if err != nil {
			return SummaryResult{}, err
		}
		kOIF, err := MeasureWorkload(pair.OIF, queries, cfg.Disk)
		if err != nil {
			return SummaryResult{}, err
		}
		perIF[kind] = kIF.Total()
		perOIF[kind] = kOIF.Total()
		n := len(queries)
		mIF.CPU += kIF.CPU * time.Duration(n)
		mIF.IO += kIF.IO * time.Duration(n)
		mOIF.CPU += kOIF.CPU * time.Duration(n)
		mOIF.IO += kOIF.IO * time.Duration(n)
		totalQueries += n
	}
	if totalQueries > 0 {
		mIF.CPU /= time.Duration(totalQueries)
		mIF.IO /= time.Duration(totalQueries)
		mOIF.CPU /= time.Duration(totalQueries)
		mOIF.IO /= time.Duration(totalQueries)
	}

	// Batch-update cost: insert 200K-scaled records, then merge.
	extraCfg := base
	extraCfg.NumRecords = cfg.scaled(200_000)
	extraCfg.Seed = cfg.Seed + 800
	extra, err := dataset.GenerateSynthetic(extraCfg)
	if err != nil {
		return SummaryResult{}, err
	}
	k := extra.Len()

	// IF: delta inserts plus append-merge. Modelled I/O: the merge
	// streams the old lists in and the grown lists out sequentially.
	pagesBefore := pair.IF.ListPages()
	startIF := time.Now()
	for _, r := range extra.Records() {
		if _, err := pair.IF.Insert(r.Set); err != nil {
			return SummaryResult{}, err
		}
	}
	if err := pair.IF.MergeDelta(); err != nil {
		return SummaryResult{}, err
	}
	cpuIF := time.Since(startIF)
	pagesAfter := pair.IF.ListPages()
	ioIF := time.Duration(pagesBefore+pagesAfter) * cfg.Disk.SequentialLatency
	updateIF := (cpuIF + ioIF) / time.Duration(k)

	// OIF: delta inserts plus the mandated re-sort and full rebuild
	// (§4.4). Modelled I/O: the rebuilt tree is written out sequentially.
	startOIF := time.Now()
	for _, r := range extra.Records() {
		if _, err := pair.OIF.Insert(r.Set); err != nil {
			return SummaryResult{}, err
		}
	}
	if err := pair.OIF.MergeDelta(); err != nil {
		return SummaryResult{}, err
	}
	cpuOIF := time.Since(startOIF)
	ioOIF := time.Duration(pair.OIF.Space().TreePages) * cfg.Disk.SequentialLatency
	updateOIF := (cpuOIF + ioOIF) / time.Duration(k)

	res := SummaryResult{
		Records:         d.Len(),
		QueryIF:         mIF.Total(),
		QueryOIF:        mOIF.Total(),
		PerPredicateIF:  perIF,
		PerPredicateOIF: perOIF,
		UpdateIF:        updateIF,
		UpdateOIF:       updateOIF,
	}
	if updateOIF > updateIF && res.QueryIF > res.QueryOIF {
		res.BreakEven = float64(res.QueryIF-res.QueryOIF) / float64(updateOIF-updateIF)
	}

	w := cfg.Out
	fmt.Fprintln(w, "=== Performance summary (paper §5: IF 133ms vs OIF 25ms queries; 0.06 vs 0.135 ms/record updates) ===")
	fmt.Fprintf(w, "records=%d inserted=%d\n", res.Records, k)
	fmt.Fprintf(w, "avg query:  IF %v  OIF %v  (OIF speedup %s)\n",
		res.QueryIF, res.QueryOIF, ratio(float64(res.QueryIF), float64(res.QueryOIF)))
	for _, kind := range []workload.Kind{workload.Subset, workload.Equality, workload.Superset} {
		fmt.Fprintf(w, "  %-9v IF %v  OIF %v\n", kind, perIF[kind], perOIF[kind])
	}
	fmt.Fprintf(w, "avg update: IF %v/rec  OIF %v/rec  (OIF slowdown %s)\n",
		res.UpdateIF, res.UpdateOIF, ratio(float64(res.UpdateOIF), float64(res.UpdateIF)))
	if res.BreakEven > 0 {
		fmt.Fprintf(w, "break-even: %.0f updates per query\n", res.BreakEven)
	} else {
		fmt.Fprintf(w, "break-even: n/a (OIF queries not faster at this scale; the paper's regime needs ~1M records)\n")
	}
	return res, nil
}
