// Web-log session analysis — the paper's §2 running example: records are
// user sessions over the areas of a web portal, and containment queries
// answer questions like "which users limited their visit to the main and
// downloads sections?" (a superset query). The data mimics the msweb UCI
// log the paper evaluates on: a skewed distribution over a few hundred
// areas with short sessions.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"
	"sort"

	"repro/setcontain"
)

var areas = []string{
	"main", "downloads", "support", "search", "products", "developer",
	"news", "docs", "community", "jobs", "account", "store",
}

func main() {
	rng := rand.New(rand.NewSource(7))
	coll := setcontain.NewCollection(len(areas))
	if err := coll.SetLabels(areas); err != nil {
		log.Fatal(err)
	}

	// Session generator: area popularity is Zipfian (everyone hits
	// "main"; few reach "store"), sessions visit 1..6 distinct areas.
	cdf := make([]float64, len(areas))
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), 1.1)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	const sessions = 40000
	for i := 0; i < sessions; i++ {
		n := 1 + rng.Intn(6)
		seen := map[setcontain.Item]bool{}
		visit := make([]setcontain.Item, 0, n)
		for len(visit) < n {
			a := setcontain.Item(sort.SearchFloat64s(cdf, rng.Float64()))
			if !seen[a] {
				seen[a] = true
				visit = append(visit, a)
			}
		}
		if _, err := coll.Add(visit); err != nil {
			log.Fatal(err)
		}
	}

	idx, err := setcontain.New(coll)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d sessions over %d portal areas\n\n", coll.Len(), len(areas))

	name := func(items []setcontain.Item) []string {
		out := make([]string, len(items))
		for i, it := range items {
			out[i] = coll.Label(it)
		}
		return out
	}

	// The paper's example: "Which users limited their visit in the portal
	// to the main and downloads sections?" — superset query.
	q := []setcontain.Item{0, 1} // main, downloads
	onlyThose, err := idx.Superset(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sessions that visited ONLY %v: %d\n", name(q), len(onlyThose))

	// "Which sessions included both support and search?" — subset query.
	q = []setcontain.Item{2, 3}
	both, err := idx.Subset(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sessions that visited at least %v: %d\n", name(q), len(both))

	// "How many sessions were exactly {main, support, docs}?" — equality.
	q = []setcontain.Item{0, 2, 7}
	exact, err := idx.Equality(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sessions exactly equal to %v: %d\n", name(q), len(exact))

	// Funnel report: for each area, how many sessions never left it?
	// One equality query per area, fanned out across the store's pooled
	// readers (at most GOMAXPROCS at a time); answers come back in query
	// order, each a non-nil slice, and the first failure cancels the rest.
	batch := make([]setcontain.Query, len(areas))
	for it := range batch {
		batch[it] = setcontain.EqualityQuery([]setcontain.Item{setcontain.Item(it)})
	}
	store := setcontain.NewStore(idx, 0)
	answers, err := store.ExecBatch(context.Background(), batch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nsingle-area sessions per area:")
	for it, ids := range answers {
		fmt.Printf("  %-10s %6d\n", coll.Label(setcontain.Item(it)), len(ids))
	}

	st := idx.CacheStats()
	fmt.Printf("\ntotal page reads: %d (seq %d, near %d, random %d)\n",
		st.PageReads, st.Sequential, st.Near, st.Random)
}
