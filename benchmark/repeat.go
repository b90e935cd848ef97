package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
)

// repeatability compares the end-to-end metrics of consecutive sets of
// runs of the same commit, seed held fixed: an exact metric must repeat
// bit for bit, any other may not be worse in the later set by more than
// its bound. It returns a markdown report and whether every pair agreed.
func repeatability(cfg config, sets [][]*runner) (string, bool) {
	var b strings.Builder
	agree := true
	fmt.Fprintf(&b, "# Repeatability\n\n`--repeat %d --seed %d --seconds %g`, %s, %d CPUs, commit %s.\n\n",
		len(sets), cfg.seed, cfg.seconds, runtime.Version(), runtime.NumCPU(), gitRevision())
	b.WriteString("Each row compares one end-to-end metric between two consecutive sets of runs of the\n" +
		"same commit. `worse by` is how much worse the later set is, as a share of the earlier\n" +
		"(negative: better). An exact metric must be identical.\n\n")
	b.WriteString("| workload | metric | set A | set B | worse by | bound | ok |\n|---|---|---|---|---|---|---|\n")
	for s := 1; s < len(sets); s++ {
		for i, rb := range sets[s] {
			ra := sets[s-1][i]
			for _, d := range endToEnd {
				a, v := ra.m.vals[d.name], rb.m.vals[d.name]
				worse := ratio(v-a, math.Abs(a))
				if d.better == "higher" {
					worse = -worse
				}
				ok := worse <= d.bound
				bound := fmt.Sprintf("%.2f", d.bound)
				if d.exact {
					ok, bound = a == v, "exact"
				}
				agree = agree && ok
				fmt.Fprintf(&b, "| %s | %s | %.6g | %.6g | %+.3f | %s | %v |\n", rb.cfg.workload, d.name, a, v, worse, bound, ok)
			}
		}
	}
	fmt.Fprintf(&b, "\nAll pairs agree: **%v**.\n", agree)
	return b.String(), agree
}
