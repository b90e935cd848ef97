// Containment joins and composite predicates — the query classes the
// paper's §6 surveys and its §7 names as future work. The scenario:
// a catalogue of product "bundles" joined against customer baskets.
//
//   - "Which baskets contain each bundle?" is a subset containment join:
//     for every bundle (outer), find the baskets (inner) whose item set
//     contains it — one subset query per bundle against the basket
//     index (an index nested-loops join).
//   - "Baskets with bread and milk but no candles, drawn entirely from
//     groceries" is a composite predicate: a boolean expression over
//     subset, superset and NOT subset leaves.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/setcontain"
)

const domain = 400 // product vocabulary

func main() {
	rng := rand.New(rand.NewSource(11))

	// Inner relation: 30 000 customer baskets, skewed item popularity.
	baskets := setcontain.NewCollection(domain)
	for i := 0; i < 30000; i++ {
		n := 2 + rng.Intn(10)
		seen := map[setcontain.Item]bool{}
		set := make([]setcontain.Item, 0, n)
		for len(set) < n {
			u := rng.Float64()
			it := setcontain.Item(u * u * domain)
			if it >= domain {
				it = domain - 1
			}
			if !seen[it] {
				seen[it] = true
				set = append(set, it)
			}
		}
		if _, err := baskets.Add(set); err != nil {
			log.Fatal(err)
		}
	}
	idx, err := setcontain.New(baskets)
	if err != nil {
		log.Fatal(err)
	}

	// Outer relation: 50 curated bundles of 2-3 popular products.
	bundles := setcontain.NewCollection(domain)
	for i := 0; i < 50; i++ {
		n := 2 + rng.Intn(2)
		seen := map[setcontain.Item]bool{}
		set := make([]setcontain.Item, 0, n)
		for len(set) < n {
			it := setcontain.Item(rng.Intn(60)) // popular range
			if !seen[it] {
				seen[it] = true
				set = append(set, it)
			}
		}
		if _, err := bundles.Add(set); err != nil {
			log.Fatal(err)
		}
	}

	// Containment join: bundle ⊆ basket, one subset query per bundle.
	var pairs, bestBundle, bestCount int
	for id := uint32(1); int(id) <= bundles.Len(); id++ {
		set, err := bundles.Record(id)
		if err != nil {
			log.Fatal(err)
		}
		basketIDs, err := setcontain.SubsetQuery(set).Eval(idx)
		if err != nil {
			log.Fatal(err)
		}
		pairs += len(basketIDs)
		if len(basketIDs) > bestCount {
			bestCount, bestBundle = len(basketIDs), int(id)
		}
	}
	bestSet, _ := bundles.Record(uint32(bestBundle))
	fmt.Printf("containment join: %d bundles x %d baskets -> %d qualifying pairs\n",
		bundles.Len(), baskets.Len(), pairs)
	fmt.Printf("best-selling bundle #%d %v appears in %d baskets\n\n",
		bestBundle, bestSet, bestCount)

	// Composite predicate: baskets with items 3 AND 7, without item 0,
	// drawn entirely from the 100 most popular products — a boolean
	// expression over the three primitive predicates, cost-planned.
	within := make([]setcontain.Item, 100)
	for i := range within {
		within[i] = setcontain.Item(i)
	}
	q := setcontain.And(
		setcontain.ExprOf(setcontain.SubsetQuery([]setcontain.Item{3, 7})),
		setcontain.ExprOf(setcontain.SupersetQuery(within)),
		setcontain.Not(setcontain.ExprOf(setcontain.SubsetQuery([]setcontain.Item{0}))),
	)
	ids, err := idx.EvalExprLimit(q, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("composite query {3,7} ∧ ¬{0} ∧ ⊆top-100: %d baskets\n", len(ids))

	st := idx.CacheStats()
	fmt.Printf("\ntotal page reads: %d (seq %d, near %d, random %d)\n",
		st.PageReads, st.Sequential, st.Near, st.Random)
}
