package stats_test

import (
	"fmt"

	"repro/internal/stats"
)

// Example profiles a skewed support table and shows the resulting
// engine plan: the fitted exponent crosses the skew threshold, so the
// planner picks the paper's Ordered Inverted File with a frontier sized
// to the hottest list.
func Example() {
	// A heavily skewed collection of 64 records: item 0 appears in
	// every record, item 1 in half, the tail items in fewer and fewer.
	support := []int64{64, 32, 16, 12, 8, 6, 4, 3, 2, 2, 1, 1, 1, 1}

	profile := stats.ProfileOfSupports(support)
	plan := profile.Plan()
	fmt.Println("distinct items:", profile.Distinct)
	fmt.Println("hottest support:", profile.MaxFreq)
	fmt.Println("use OIF:", plan.UseOIF)
	fmt.Println("frontier block:", plan.BlockPostings)
	// Output:
	// distinct items: 14
	// hottest support: 64
	// use OIF: true
	// frontier block: 16
}
